(* Hash functions against published test vectors, plus incremental /
   one-shot agreement properties. *)
open Tep_crypto

let check = Alcotest.(check string)

(* FIPS 180 / RFC 1321 vectors. *)
let sha1_vectors =
  [
    ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "a49b2446a02c645bf419f995b67091253a04a259" );
    ("The quick brown fox jumps over the lazy dog", "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
  ]

let sha256_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let md5_vectors =
  [
    ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
      "d174ab98d277d9f5a5611c2c9f419d9f" );
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" );
  ]

(* SHA-256 of [length_input n] for every [n] in 0..200, which crosses
   the 55/56-byte one-block/two-block padding split, the 63/64/65-byte
   block edges, and the same edges of the second and third blocks.
   Generated with Python's hashlib:

     for n in range(201):
         data = bytes(((i * 7 + n) & 0xff) for i in range(n))
         print(hashlib.sha256(data).hexdigest()) *)
let length_input n = String.init n (fun i -> Char.chr (((i * 7) + n) land 0xff))

let sha256_by_length =
  [|
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
    "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a";
    "4b2871da34670fde248604e0f18fd3e4f7e1e6dfddb85875ce4813a6612953bb";
    "6ab0dba1f4f1dfbb37b4f9eeb092c09fca4900ad32bdcd147d8dde35d6c87c35";
    "cc91969ee8b9da49f3933da02bec0a0d76371ef157f714b13631bb2f407a4973";
    "548f1ba2c502bd93810ef83438de04d26a146e5823278f0378e2e38d923cc9ba";
    "d9bebe62a203867f0c920dbc538564c76f18c638330cf890d08d0c7e0fdc54de";
    "ea329d80a200b1286da016c04c276e9fcebeee29524620ebd43de9e176758a8b";
    "f8d2f3f092c61db3436e728bafd621519c6791af5717fbcde1129c46a0543a7a";
    "ebf38f05d6fc18eb20501c148d263ea4142dc05997c39b8115df468fabe24c36";
    "ebed051b211cb0a57d718c0fd615f26c4f4c10795065a0af4f2cbbc26ed01868";
    "ee18d80dcfd97fac8641cceea5963d7e381fb3587c0ec6f348f0125997616666";
    "274224d6c11e917050d9d6888859bcec53005cb3d60fb495719ff72a6364bf0b";
    "c4b3934428b91502f206ba80227cf5fcc9958439e59aa6c0b5322645d338df4d";
    "f78441705ae97dbaffd31176ec0af0b9c91e9a53bc7dd9c15f5bd6d7ece32df1";
    "d31c84cc2efdfd46172a6a9ac805f3c5c97cf4d022e01b908766e5fd1f9c9e4a";
    "91fa54b4c0e5e3a891506f57e99f07f62aaecd9970e1f810879ff0eae16df8e1";
    "cf197c749c317130c1aed54475ec6219ad2aa7ceac4fad5936765cbed6a84239";
    "82b26c6311062c95ffb7d7d6a0bee809e554df76ae939689d97348d5eeb457a7";
    "676dcbeefaee7884904edbbb638c46e128708863b42a2679e1ace6c1461ed133";
    "f35ba44648199dab8eb9bb6d26b13fda6881eea60d9173fafe777ad6797c4139";
    "3256422b793254e921d91ab785b3103e237c8c706cd1286127c44bc69054156f";
    "b570f8fff9068961d07204a0487d52b2acc0ce1b23e41484150eda4629f965e2";
    "480bb272abf65f910eb3fa6b2117d32ea4f2599ed6abe28f897fa15832c56041";
    "6aa2009703184ac2fd5d1b20bab1d4e623b84e7b54e26123d2b8fa2bd740da5f";
    "46f22d0ccbf632d805c45ff6a7d7e2f1385373a5d828213a7ac89014fbace914";
    "564930899a2fb00ed684727195494b0a0eb3e0e2cdddb41e9a78dbfe3555b9ca";
    "9e27fdce89d0a64d3c0a0ccd9341c11be2843ab08a7cb5dbf1a610014bf6e885";
    "6a05fba98b7125a7f8ea6cfe9f790c5aa86dda3384c84639d4f298eb304d7000";
    "b3c98cf7efac5d577c8a6ead041bc3664c6f21fa135ee787d3eb0bedee16f760";
    "546f9cdd5dda6d9c4811e8d4a4c99275ef818db15670537b40bb36ccd302df49";
    "6c56c9f0cdd4759c04aa75b8583e11614c25b347c984ca4c6bcb1fdfb09fb268";
    "70b25e78a713fbc17ba3f5e9b25c16200202a776ddb67fffb745d54b9eee7f29";
    "91b1f04c498a0d2ca0febf8a29dba678ce15d4aeac21e98a53a085d8282af974";
    "a77a82ddcf79dbe08af6e0bd1ddda6a171a6072da4ad2803862ec026d5dc503e";
    "0def435a63f49281a9e094a9c964dc0c3d6fab4827b891fe9aa6f35e64fad324";
    "76f2688492f21aba2a86b08e13a247ce840dc30ccabf21862b91239e1707d42e";
    "604830b3652558d2d9ac958c34f1debdba6859158d6ea1dbbfa5d22b8d9decd1";
    "e9484af304e6d192e4bdd3bdfe42f030151749df00d21ee87ed1e0af69b57f23";
    "f2ce036a5df7ba3c3371f03481f5467745aea7fd507e63ce411527778140731b";
    "1270085085f65984aab55bfcf7492c19398287be300eccd63a672f356c1baa71";
    "d52c9271a0abb9a550458ef007298e081f4a3df9d8cdbd550dc74f0295b90be7";
    "89e9f1b17a66aa2d8e0db18994eb46ea708c80dc4a9e38502d1b45ae5f7ef9f2";
    "b1dc5861b075492acf33e6f81f35c5a5c2e203ababd48519b2996dca7c45e210";
    "88a0cbfc483fa18863a68ff64c65068acdbaf1d4d1d711ba571f3878939e2aa3";
    "adfdb4e4b9148927466ed3f66788359fc855ecaef3dde5e7be3993330d6595e5";
    "5d7fb8c327ef28f29bcf495f34363edbe8431ddee46f2a1e9dd72937254b65d6";
    "c05eafab9b09805c95e2c01f223c4653404d70f489fab51bd742c1bb7c76f128";
    "1b9bb7841d34207a75844bda7ec99dfb91dc4517ece1e9fc49d3b6b38d92237f";
    "f2fbae74481f752aeaddf50d6c25d9deb91f38da5d235558647a9c20bc02e38d";
    "12e6b65d4fcac474a100d3ab2bbf0719d42087ba57eaba68890a7cce4b11a63b";
    "45c4681f7dd5aec0e6ed45c47182717f6b3f94a4b04a0dd35544c111e50916f6";
    "7307c900dd081594bbb2801f01e27636cb1d6b02dd68ec98f4ac44abf27ea370";
    "b960bcf7aeb65bf7e750f593499c9854104a731ccc29a1df02822a27530f3bc8";
    "1ad616be707a2b269ecfe28bdea4a4284a4f78a221287d45b98004231f501c77";
    "81afe5b788dc2ce138ff83d9b20164db75a94d75d2b2432eea4a0ef605088c72";
    "2aba54f0ac632420a2b502431408866e40e1d5e430df4cd822642c78ab2eb9c1";
    "903284efbf9100e8ba1614ec65eacacad125e03f857cae7acbf8b73b23e0fdfe";
    "49298f1616fb5777d7a68085f2be223e74b64e84b9dbb9b3e3e6f66599bcbcf1";
    "1b70d65ef02ab7524c4070295da64f4bc1742de82bc0f53a7241a211827bb65c";
    "a7395392b500ee1855fd4fb13ce5d863a5581fd02b981710533d5a83fbfab7bd";
    "eb75a7c80ccaebf13a9fbbe4db10e9fda98c623597d1ff194ba34a21852127d7";
    "c2c02d573cda0bf7b8c680a27687b40193446315b46675442d1ffacde704d4fc";
    "733d3d4ee79ee67145bf73da13588f6f235d37414fc64b14a2f00f1762792f5e";
    "79322907b3e9d013d7dc2c2f256674dbf733045cde01df3539271c6f5605feb8";
    "d85c007c6eb440f085afa2b84f6f2bce4658b240e9f62cb1364bf0485a57e720";
    "4bd07799e0aa84b8294602b3aefe8a14270e05a57424965ca325672b8fbeccc0";
    "bfa53da1db36997ed6b3f859885f187ee79d228169ec7b90657c38f68dec87c4";
    "d7b50207f65da3ad66e72b8ed2918fdf46a7a4d17cf3990b306943a737c7f3c9";
    "175cb3b403beb0509221efee0f750ce8d681b0fd2df28d3d7c9d0e1d365df5fc";
    "b6091ec91839ab64eeca646d93ebcb60257dd62cf8c6ba90bc94f89251564bbf";
    "8798aff4b6c7917f633eb750058b80fd0e73986c4fb0038843abdc33174f7980";
    "220945122dff0711e679897f5f0e7918746434608c91f567185813e88eacbc20";
    "9562f475c739c0a41d23e5d250504953aa2d9052f74fde1c84cb78e1f408f5f6";
    "0bb0cef2213ed7f872a72084e0ce7c6d9d32862f8d105ced21d46195fe20b862";
    "6a0ef9907e40ef080ac9cc85f9a6b338a436e562d085f03fd809ae959769db16";
    "8a33581f29fa1bf8cae8e9abdb0559d8eaace62195e08096fb73e9b0b32f99eb";
    "98a6704713ad960b733887f5bfba633c8ed2197162589b656ee9f25978dde8f7";
    "0acb3e8577dccb7767adea851a717c9f687b6f5820110ae84701420b84b56a9b";
    "ad6a07a735eaea8437767de31df2988a8dbf182f89133d80ab31f0ea597eb77c";
    "a6e52afbd45661fc6a71ec36eba56ba7ae472c51f4d476b82976e50f84e17905";
    "377a4403bfe4d41dd0996f15cd6d68f910f264ebc06f3a0a2473db278be4d8ba";
    "4c3e7a4169fe11e7dce23915abff2f3722049d7b90bc348f42a37d11af92d9ac";
    "fc9fb04216316d39ed5b3d53bacdc4ea3b73f5e309e43713fe402aa310c570c5";
    "144cf6dda6a6e19fcb25d288d2a19e1af83732643189f84350aca9f89cb4b161";
    "266b94dbb76bb6252d1e7aee1c77439b5901fe28f26254ad96b17bf12fb902d4";
    "f0284cadaf3376c62806d6a88d65e679ac9a518c30f2eb42b17ca1eaa2cfe321";
    "cd1ae968e11fc6dbcc41e5c73c6e70bb3579c26c01659120a5e2a5c0580b714e";
    "f95c65d193814182f0de627f2a4653bdc7af626621e5135840a042a53bb5e0fd";
    "5716a97f2e8159ca0ac11cd580a6b8b22857286e72a1fa501b61b0c029eaeb72";
    "b93c6d70caf5c5f86f62d9adf11c9bbfe8ef1297897eccea505d39c72217c5b0";
    "a9da5f6454c9ae189e7c6f72f57f08597cfd20bd316547d25265469e2cc0ef63";
    "01ec36203e28b06865cc160e29b3dbd41c488fc7703a30a566d884dfb31785be";
    "bc7eeb5251c9af5ee6601272f7b0d5fe206a09f687d3e96166d4408a93d8bdb9";
    "b8b392cf80838fc35dad280de0f0b0e9affc8b568fe620173ba2947e74d449d7";
    "9e1c7c73e4ffbd249a74268b28e2e5ea441637e7603ef3864328805e655485b4";
    "4a0a38136b3943c61ee669e795f1b90c71dc76d50edfdd94254a4308fd55bae6";
    "02bb4113a775433b2899a88ab092b158d236ad62782b915b7d6c25c3d0d765cd";
    "e026184fbf9954459f89488035a5ecaafc625398c698321ce34ff9897892edcc";
    "2ac66f34dc2f0628b91997140e5258ffde4e8ab9e9e6fab918d98fdc6405e932";
    "2f52d6c67152b0e2a107af8bce27a809bc086d1cc5eb5d485a0c7cb7bf631a7a";
    "a5b81b493d8df541e0f96f43f4d81ba59f6a685b0bb4141d2f4bb99f602cd1db";
    "d69dce1d9d8a07edca286e2ed8d7e733eca9e2b227261b42ac5ffbf8c2d0868b";
    "900ad118ea97bed64454806663d3ab32ba1fc63dac1de996b0388db54b7d09e7";
    "1e23a81255d010e8281423d4b382a10ba10600cb66876c4f9cc47761f2a8772e";
    "58ac756b17bfdfb4b528f002e15c9775cdd3137ce4a175b6a9d6891280283c11";
    "a35cd04631ea5372732cf48d87ddffcc38737943874df0fbc5cd2c396241497e";
    "55bf424a4b5f9fbce2eb82577f2c460784a93cec2ae13cb4d7a5fb42ebd08ba4";
    "ba09901259c69b18b1f75853e22677216a335cf49a88e7d1e97b31ada7bd1646";
    "1495e6b71337caea7401ac76bbe52a6a3d58397ddfcb3e9e7c2437101687e388";
    "87f22f4d2ffd18b5e4f31d1e5e0a2e8c3696e388ede222680e4711530e0778cf";
    "b41ae5233b9ec35d8576a032034d2857b667a618c7038714d727d4dae3aa2525";
    "0949563bc78e5ccd85603fa20368a33ed3d2da0141c8284a3b1515fe4683cdd7";
    "797b138819c4658ac5a0117ffe7d88f2b1f2943217dde961bfd364f1fd102a8c";
    "7da54c63ae2ad5b71ac660e0f2daddbeff79302867e0f38a18cb63652b9534bb";
    "ef795a2daf56862dc83022fd8bc77fb6ddff8e0c9bcde189f28beeb61225b283";
    "618b0c28b9fe88df6db5dbe917153313062d58bf49012c1c6cb472e30585c29b";
    "5755466ea0fadd9f635de6454152929c001c4647a7826f4380d6ff498f108540";
    "718ab275033c0e8d8ff4d0d773ea1945bf58fad732456602e6cda1a9036b5172";
    "6c87eedf096b345de205b702e5223b73b447a3207791ded3ea007ba15ed6736e";
    "42500cf6a1e3936d6b9e0bcfe296d654b63255e525487d3634d0b15fde591c4d";
    "bfee8850f7dfa42874071a0040ef89a5ac8d70c919224c440bdb63adb65d35e8";
    "e7b3de51aac0cd0a46133dbb869cdf305da96ddc208e5e6ab8cd6fea0b812158";
    "8dd1b5fc7cd6b1da5df5f0aee04282c546c18e5bd97716d9a1f2dd904bd130ad";
    "5b97543a64eea4edbb6d2af4fe32d6b3866bedab7d1671a2dae30e6924282c8f";
    "e531b989e30fb17d0452f036ecae8c9f219e39fc875ac251a1e564e8bc444e79";
    "5ae48c4d4a05ee6515afc86627f60f13f0cfe1580473a5a220c04a4c3e2b71d3";
    "68f6ff710276900c0ffbbc57426f67e00c2e01f0750c7edc25ac06b8ce7a8095";
    "489d55fea9a73af36b6dd0be7b4117d8e5683386d39544e8a44c99a87f368707";
    "4e1556b2e9a50a3cc9478f3254727b01065f9ac5d2c3a8b4cd538ae7240bb87d";
    "bfeaa0cf3d24ce3cdc6efadd5d4df78c4619e9e65ac66b1c185a3435d05a19d3";
    "5f1937bee0ec08da8166f4a1ea5b29f33b127769fe324f14eceda0e48ab6cdee";
    "60b4ca2446485d9746c6183a40836a8dde4a5318a222b41552cc1386efea1b02";
    "29b4834673e85bff6e91936dec7b969ee351b2424386db7adcba2929016c8763";
    "4a2614e2d0bbd340b46169033d382cb3d872ea38be56e6bf500f70f0204ff535";
    "0eea3025e4a37d3b2bd952fdee392fd179b4fec0aca90a9359d836f86b089a00";
    "b72d3b91114641dc389ef63339b20e5c9ee433830181cc1dfb0b31399238ad15";
    "38290bf1c604be3889d181a6742d78b480dca5c25b58b2d204df47f826a68370";
    "b28d7f683e41cb35caa989374f5d4603742f8e054a2e9b8f20229bad1ad70e50";
    "988a989b7aaaf17365a3397a2bcb25fe8884e03aa9776a1291c7d9e7b57f90ac";
    "ac670bdfc0de58ff51be1d9d351e1ba6be1c2df824b6c104cd301555d16448ab";
    "70e38e223fee4597272748fac700e8f14c15983bd6c258ead75c19ef618f4f59";
    "b15447bdd37df01cb3edebcac64c7b2131d52816cbe20e6024bc1f4a83214915";
    "96c2d4ee4ba535bd13bddd959af587e03a986a55c650f16a0fcd1c8fd0f0245e";
    "c64a92aab2316b08396d945ceafeac9ec05a9571432be89b92f2a5e4d38b01e2";
    "338b43ec5ccac87be7541b92d1d84a267e7ed3867f20cf6146f184f3279b2104";
    "2e4bf427a1786acff11c59a331ede85a8ba3e24c9bdcc0d2330c8584898cb21e";
    "d95be774d67d1a3850b95f034e5ccc48aaf060a44c8a4eb10f08c9648982645a";
    "8c5584726521939aa98f1b07a18eaa496093730ff9002c9ca549e4631e1facd4";
    "98e91f69015139268a19be27477f1c93856fa9ae75d428d56943ea52e6a391bf";
    "58b2638cf0ed5c05181f120eaec1d9f26a44bd020be429e02cd04d449242fad0";
    "8831025e4ef6e172571b8de8eda26c06662b7da21127a59739b0a4e24b865513";
    "07246a10cc56e97be0f584d93c917dbd618bc26b9eb538260d4fcd990adf92a9";
    "46fa41e24e947b1719529a88096a84718d822127a8a23588c02c8d90b8a1d75f";
    "f27239de70d28de000b11a5c2836607b883a9d732e150a7d2415a64d8189e01a";
    "89ecf084d640cd78ca28cce449b56bc05d612b54c335f451a7877f5efba02522";
    "292e38669f63690318cecdbdacbf38add595843cb90a4021ba98d62c6f03f4a4";
    "157cf607cde83e9f12ae62c77fb51b4e0f3061091dfe2fdd2237ae406fac5812";
    "a913a78283d01b7cd6908f6b08e99999f92b137101139ac5e2df736664d774af";
    "338bc069f893565f7f1788b6f728711217fc59634c8d4dde99cf35115254bf05";
    "c7cb16bc7ab0a7870306f5d99c460dc12055de572e36a44af27f78fe25a70d8c";
    "3a4fd480a04f4ca78678a77bea23d645b3357643d83c1228bae9d77da6f31405";
    "338b2e5fb4af32c34b5f631fb9e59e77fdaea6396de69abcbe5a2991f1a4e3fd";
    "8c18ce05356e4aae82134b19142cdda4bfa9f1dbb8a2e7cef4da4723b84ac3d7";
    "50d2acd972e9103de09d38c737aa4856d0e49af38ea30c08884930373d072ed2";
    "a5c8719cf92b6d7ae5ba715676c58a6c1a529efb165ff92d179c4d41e45a69b5";
    "a8fd879d827c9fef2b44d2275d92dd56296e675f66d355fe41c6580fc4287469";
    "2d25974cacc218304a5745f9c787fd9b8080e16d2bcfb48dea9a3c142356c604";
    "45583d73ea1a1efc96951f6781f3fc9c45d4b9d790982aceb2265961ed815e9d";
    "2f094e0eccbe4020bf932d27e3a3a2893d1482f851260840106510830b203918";
    "753c905aaa98970d8cfb80cb47f5cc42678e816f3b14126e0a778e061fdb4ecb";
    "7592e5b5756f17b2c936016eda6fe653b0df33ae9750fb51af6e224c5020d624";
    "8fad802be754820427d5c5050034d2504e73864349796f3f5508f329412279c6";
    "a4c13898f34a2ac9a89b64fd4d2380a9dca0b602e696501c0fb2b1b97d36cae4";
    "43c856f7960014af09889e408064c3f012bda74f3cdf29804735a3442a320a0e";
    "bbaec7295b89a7ffd77133dc070ef7a645dad07f949e138643aa4dc17769799a";
    "3ac47e7ba9f13534357c0b47166542606acbd921d76f9061b63051cec79135f9";
    "bc8eadf7b9913500abd031b71c618ad280d6d8e24155a92cc8f43fdaa00ea425";
    "308b4e677d70233fe83b8d01a58122995b3ea886d29c08a3efe9352a493623ae";
    "a345db8856b0700ab88eeb42937a40455d0ecc0539272e960efe347e53f6ee67";
    "ac718258d41c9b52ce60ca65b73ba896293a00c21e925ba12fe3ecc6ec9598a1";
    "1c4d8cad23aaafc3eb7e8b507c2243bd0e07cdb9bd2c75503f8eafc65b82531a";
    "9a601119f9de5f7fbdaa1285790c17ea1210c266dc7645c9e638c6f735352f43";
    "d5569223a34f844867a0472755c7e51a0f947e822f876d6c1ef65f980640e968";
    "8beeb42ffc89512dc989bc554ab51c629498bb00ce29bd0ad136e00ee5024ef9";
    "82908f698870f92dd5c2452273455c2815bac224ad665af5157a8e40a19dcbb3";
    "638f1a949ecd9ddaad54056792d1b3b70192241bcb50837ae57ab2a10aab2b35";
    "21a04a07218f696525f4344af254d3b7346818de3f7c9492618e568975e42e77";
    "018c8d9dea89f6785a81a14b526ebfea58afa0c23ff20022e5fd6fef4fa761e3";
    "5b1d3e4a1a1b1222fbab335f3df8994ecc0a25d571bb167d93fdda81410f9b87";
    "6e85f4424991249b7d571e17963d313c2aa43639ba4120f1a00d190df65bd0fd";
    "335b3bf2c22790fea5a53aeb3bc5964e315479ea95077e3425e53031703c6ef0";
    "8670a48b392a0d3059954d2bd00de898822e9581ab3f85145e5183d9ad740dea";
    "895db6b112ddbfcbda85094a9591fd28a61479fad9895b0e0c48c6c0d842d0dc";
    "7a92cee25bb02c9d34dc437988be4819479457586044191cfc518ceb1f11dba0";
    "35080237ef6212cef321a763f43fe2035ef6824c3b69055d4b658147ae3a44a4";
    "770b1844a2781663840f85ad029e5f935db6edadb9187411956d82bcfa3220a5";
    "71fa2c23c62f8daddd2480884870e9c9bd7a245f55c5d5fdadaaf4b1883f7f1a";
    "91c4aa475ade326845bc0ecd8f0ddf9d293332f5048d163d38e73a0e285508b5";
    "a61a5546297c6e17e82c90f5c5d9fabfec1604a842af00fb5fd5cf2fbbcbc4bc";
    "8e3f3819b4f1b1f71c011c6b854c43601f132c3c88b8982b20733d2b1695c593";
  |]

(* SHA-1 and MD5 of the same inputs, by the same recipe with
   hashlib.sha1 and hashlib.md5. *)
let sha1_by_length =
  [|
    "da39a3ee5e6b4b0d3255bfef95601890afd80709";
    "bf8b4530d8d246dd74ac53a13471bba17941dff7";
    "9c674f1be4f5bcd440ea74b28ef13345eb68f71d";
    "4201de9f98cb0a9b8cf52398be7802b55d45266a";
    "e8780d9ec384e7a26db2a77bb177d51238bf7573";
    "f0b8aa0751d458ad4da40c062efc1d7f4f221630";
    "7e40133ca10729056a2ff9c8be4a67d4abdb7a6e";
    "eab18589a2bbf56454e158191489980a134f04bc";
    "fc1bbedc70772da6ffc4c111c3512a8af859de42";
    "17d7a67c31955125ff049fa41e2d489bb1f47ad0";
    "426cc3ee6e3359feb7b997cf2e8ca58fb230ab7d";
    "11954da11eea38e4d96d9c63e5987faf48b2f88e";
    "0342934a0fee0fbee8e386fd8f6719376c331133";
    "8bf437c8bda2ff4d604fdfab47265dbf749861e5";
    "e183f9ad5bf8d3dacbf29d80b88b5df78704ed03";
    "8e52e3f5aa693be76838f0212719572d6bbbfaa3";
    "f522cd172fd6c35afa066822cf04f49079d11b12";
    "1072b13029e9620a51175ef5caae6502a61336f3";
    "9f6e531090d64016e64b5dc5bbe255b0823db87b";
    "e114bef957ae49d1b85d39b99b2b83c1b5ce650c";
    "e268fedef6a92518c93eaf5dcc5c38ed07b65b93";
    "bffa8ee0977f79b4852b3da2979f24cee3f67101";
    "ba185089611616b1c31388f053273469e78b7439";
    "7f19f945d69aa9fb8b091db62f28e4f96a897e46";
    "f8166601be219467ee1338075caa9a7df33c0ac1";
    "222adba9a33c1a2c45fec92fd4b76e00cbd4352b";
    "ced4d5db11f362f8810f1d8291f98614eb9aaa9a";
    "369bcc40c527ff9b4de264abbbc0a8abb9791a2f";
    "8cb582cbdaa770c992d9c47402dee81bc071f5e4";
    "fd17cdfb069d6cffeccebaefae56d187cd5c37bc";
    "bca758b91d3a5a27cf8d7a0f0f364c8781c6086e";
    "fa8eab37d81e63ebb5fa34279b4db0c337b17f79";
    "42e4282067b7d9f26b4a0de765d01994c3863346";
    "4548cde7e1d55f7130fd11f58dc4cf711d581654";
    "f3e333a535da8a0c36e37138328d8adf587ddd65";
    "b26b12db9587fff97165e2492a241ea91b35a639";
    "ffd047397233343ed36db4ebc024ca5e757065ee";
    "5bf22c010afce90e59419604e76be102989b0aa0";
    "e27b5dae25b93bc3788235664960a90ea342c069";
    "931dd0ff29112eaa3f834bebdb0457520eb57d69";
    "a1c2b0e6d66c55aac1bf3800372be7a6d925df52";
    "23d0d7b03d55d58755897ff57302d7ec20695f20";
    "28a0d38ab3688ef97ed84487d5520ba505b18846";
    "64c775f1b84111764879e46225d80b4ba8137a94";
    "4a0db127694c1fe213714234ea3df0ba1ae9e3a8";
    "ded1dd29a62bc924a1f495a5a9d93a8483c56f56";
    "b3809326ed80da0a431ea72525a5a935b930dc9b";
    "e3c0d2f1f30a3b8eea5976b5a1c5e19e17753d16";
    "6d8cc5322c3af02c112dd544504fb38e0f490aae";
    "d6b66c5ec029578e7c14702e694fff5caeed1a32";
    "1a43edcf668703d9a666eb9296c1c01ccef30f86";
    "34a67efa590b34d2ef7fccaa81c0558eafc2114e";
    "786b7c8c7efafe94c36c6971d62bd624c138812b";
    "149ffa914a5b51f423613d51505dda3be50183fc";
    "7fe50979b12cf9232dda5ca196ac5d968090bc2c";
    "63ac9708fb581dd150d3647549f9e0cb51dcf1df";
    "5a0c4d0eb2f15e05bbbff6b8dada9ae767fc03f0";
    "4e77d3077d2ab5167db3434c31cac3d15a3afc12";
    "55325ac57306e539c8bfc36d94136a2e5bda2da7";
    "a364139f40b5c4ad38c3fd993803d4538fb7b5df";
    "d7e650ba4354d622ad7739885081b6e56d28ebf3";
    "2094fd0ac77de53c995a75375105027c1769df29";
    "13c7fa27348fc42cb0624aac3abfb9cadf2a8ebb";
    "d94ff3ad53f9b9327704b812ee9c1f3abbba3d48";
    "5f55a35e13f1865e7ffc22dca1275b1a49b0ff56";
    "d7f8931010f8342a97383e1410a58c47d057708b";
    "2e593ea39a6f3f350b18d8aa7a9f09e32f4770ba";
    "07d3bdf334f84e144003fde1826f7688d05e78ca";
    "30db91e7fe89e6f0911f3cac435e7b96787cf65c";
    "859251f6fb81a83ee8c3512a7ec4dd64ffd39bc4";
    "51f8c08e5b8c740b0c33415eed63c32a1bde6b47";
    "7b80059797fcf45bff78f6a1d9509a5debd04e0a";
    "e29544303d9102d1879e96f85e12cad82a29c5bc";
    "8daa97233fb281c0468b915b0c376ff64098fbd1";
    "edc763a73f7a469f5b6cd2d6dd9a1783c2d8fe97";
    "301c815b331aa80235efd7f660d17c8e61a15856";
    "71f778d5148a981ca28819d25d6d2da6e372ff2c";
    "9b9dc6a8ff8b0bee626bbeaf2271967a7395eafc";
    "7be79d04d98b7b4ab552e05b500ca67e666b8686";
    "d42b434bd76dcfc06be4d558bb0fe0eef8e738e6";
    "5ccb4ae7af140e34d903c9df74ba4a90c74df0ce";
    "4e14fda34c8f9f56d0e4ad057ad4398c5841c3f7";
    "cf6155f05721b84ee7e806f02c5c2fb6b224f36d";
    "0c997d53f30ae88075ba9879d385d65f024f2fe0";
    "4a9c5d0e2ecb32e4a4e51d16327f013f4486d214";
    "600165117c39a8b4a7f204c93c75c1a3c107b135";
    "42345a38cfadc3e67b7052f2e817d6e4e50344a2";
    "ef5da92afe0c09b721953bdcc46169d1f83af0d2";
    "924304c46036824e08de0762bf10e04ba6b2f523";
    "3c8abb764e778c348ba7c3176bea5e5b93fd37ab";
    "1a0529f4167c6efbc1ea335502ccd582729e7305";
    "a92902b8c8f4630b85afccb2483137b3147d6bd7";
    "eb532751285a8c025a9f36bfc57020b6fcd4d504";
    "52764dbd44a148011229c756d5c604b48b4f9ce0";
    "0b0650f648c45efcf8be410087d0e912dd5e63ce";
    "41d7a8caab2fce3cc9d34ffdde161b2eaf3149e5";
    "94cfe5af72ded7897b1b89a57b05a4c5eeac8f54";
    "d51d8b93aec391d6e38ed19e8799c557613bdcb0";
    "73d79e30a775402af62b27fa6e3d68e782b8a65f";
    "9a1585dc67cea97799cb7f4468ede544bc8f4383";
    "058eb7c24cba6e7097617c65e057ab7927f39a04";
    "f4c2c29feb7db2102201c7926274cb8d716f4fd2";
    "3351549c2ff983a4f79b25cac001d9db15d118ad";
    "6abecdd328053fd1ed265c2503f5d0e5508ba0dc";
    "019ac9b1f8986aeb233cf9137165da5279d266fb";
    "14a80b496ab11dd9c85f3f045d08d9cdd36787f6";
    "65edf3f40da691e2f30faa74fa68d1a15c42c6af";
    "e0862c37c1300b85c2650b4d1143c2f3a1d20ce8";
    "799c952631e05937262dfef25156fa0b3e01a61e";
    "7b16ec73763385fd34574ee304d5e8098361973f";
    "5a690ddf44d017e5478ba95f9cc217b549022885";
    "6f3940d34dd76944c03f3ba2825a385c92d8300e";
    "8968f10b24861960792c092aced440e6838b7c3a";
    "bb8c69020b9ab5873a33d9b54d721bd60d8562cc";
    "a76bf91326dc8ad255a950d13872a9d80ddbd68e";
    "4b58f2ceabddecc92be6a35eb72ec612c879ab0e";
    "fa0fa3613efb14b9de0852fb707b2935abdada56";
    "1d610d16990baa55a06d44f39ef69c168f7280b5";
    "b348b9a103899a241372402cdc7b44c9bf3a8fcd";
    "774001b5ad1f46b40c48e1b94cb092c593ead25b";
    "6ebf3111dc761f11b13f29df0484848785385973";
    "467945c0e868aaff130a18a6ff44c3963010999f";
    "c502ad37e0c15196eb80d270013a8dc4c1037885";
    "7807cd8a4b8c18466382b58433eea7639b9a1274";
    "8011b2798dde294b64f61ff446694029b17815fc";
    "4b20490737b3301e1f8fb0bc858ba31378f5dde2";
    "7fb49dd181a906b26af8aeb1638fe71f9aaaf7d9";
    "82d007f6e7e5672722c0717b6bea2ba6f17cd35c";
    "0a44ac02432f6ead67d86fcb70a4d8ce589e50ec";
    "461b146c523c63566b8bf8852dc8462116cf2e3f";
    "a6a487bdefc7a46ff7948429b7217238f67a9141";
    "e520d05625b76dbb8c9adec976a40134ee9df17f";
    "c354a0f7b1c1af56f762cd9d51622624b55b3016";
    "7311cee95677a68a4bff3d768df960d23b78c367";
    "75aeacb285a62d69c4977ff9b99b2e03caed389c";
    "39efa73461141b7823dea473f4b34c5abcae24ad";
    "ff2002b8e87a6cc25c32bb9b95f99a8145e54b4c";
    "fd3b5015331174ae31dd125d3df8100910ad34bd";
    "50b4f3e785ea545fa9c0459812582f6ba8e694bf";
    "043d3838d54bbeb7eb1f1bf07dfad9927d07bd19";
    "d1b15b1a9fc870a55d3112276c70a8a72bf7e434";
    "599946776f8ad7ddcddb049a40b098efc575a4c3";
    "fab0e8037aeb265034ce115ec8e20ac45a65ce80";
    "cdddd8557885d4bd291f18d5b818d33c61f34a30";
    "681a34c10c73bf43022c802b3045fb2b4bcc9bfd";
    "37b7b0bed067ff5451e59e076b06c33976928a6f";
    "43ce11f502089a20b9d4832232c6c44ad0fd0e2d";
    "117198173e705169ac70fbef729fdcafe1f3e39c";
    "543c4e2a365390e0180b7d6d099b627c9e07c7bd";
    "88839b8bed90057ba3a9e0cada7098c6c9c34fe3";
    "e1277f6071746a25e1c2c4d0202b267a500fc8bc";
    "ce22b26d8f02083b0bbfebb3836a263bcc77437f";
    "f0e8bc06f0fecf2cfdb481c51d5f96883f8a297b";
    "782129662a82bbd0a610d28c75de3fb2ccbab84d";
    "9f4491c7abb4e3af12e6b88d5ca28456b7e6a510";
    "fd3dfb2defc06d1f4b84cda9f646f876eb029a62";
    "82abffa6b02084a9d4524ccf0d6a1ae2a672e548";
    "bd695a5997f6077e7708769da3ba03f66b51f79a";
    "19937f57323f9caf86a6f21a8fd0b80144e43f97";
    "7afbc9c0fb9ba229a55fe48a361c8d2a269b847f";
    "abf90f48cc58fa6fded67e91091d0c8250fe1c7a";
    "5618753145686ac3420d0292577686889932d852";
    "fd141bd09b4ee56d46a0bc620efed0f4bf60916b";
    "84febff8bc707a448b21359de3591c7cbd70e8f4";
    "9eef95d370e23e6d3313ecc328b410759caaa4cf";
    "2363dec4a66b0f405521d8fe438497a4e2f14446";
    "d2ac19ee3a01acee24555c62ab55ada37fe9128b";
    "7d92120e43a071bb5452a00fcf4875f97de4b92d";
    "62d521dbf4127960745b17c3d4a72e08f6bfeec1";
    "8543486e419481112b14e01a47af953d0b610ea4";
    "ea5364ffe859c31459f52d73d4c9ac0021fac8aa";
    "a162be0b30f99413e6a8313af805e72f1a032fe6";
    "fd9b12e30b15730a5f425f3ce465b6f9e0bdaa4e";
    "af6883a40fcc0d8ea6544cba5bbf1304c8b8cc3e";
    "b33d04efe827122b76203ffb7c517b237bfc750f";
    "732e6f76d0fb1e54f4943fe46929783dc27fca68";
    "da2a1727f9a60663f9626b283493b63a4ba2448e";
    "9ed00bbbcafa0283f21e36133ac1237a917a9381";
    "ca7c4c10a84406ebd19c8e0a83caa17254b150e5";
    "fd36e06eb7833196c0e76b13e9b2c9ac178d0e58";
    "636fb18f0685448bddc7126c96cfed6b15fed9a0";
    "77a57778e2f186626132a08d103f3b8ab83b4d9b";
    "8b654c3ec56f5bc66a82fddb5d456d8c76db6e88";
    "e56e91fe2d789eafdbc219ec16bf41d6d7adbd6e";
    "d5ee0963bc8663a79fa7d3cac5a9d506e8eb2963";
    "00da4ca9f65dfd068765911040226954236e66ae";
    "264c1d20f04e8baff71a4f41639df3ee2417cb99";
    "9f0623c724d89cb10109e03850819b82af6d5344";
    "63909a43a407e554c542ffc917da58a873a4b0af";
    "c15d6a322aea2619ade7d6331938b0b60ff2f6a4";
    "144d64eb93b4e8f3997ac662a9e184a9d22f781f";
    "23197991c9724f0f6b62914d589fcc14f4b1ec66";
    "7f1fe25f3fa1bd65998ecd66bd359cc5054a5ec1";
    "5f0e877666a7e4efb8f518ba70f76c6bba63819b";
    "827c5fb3f814df8d6e7e71a9be16c5db51e691b3";
    "8470739c92b2fcb951d01e4608da56c01d2e4453";
    "a2fc6922aec2eaa6d2f47c89eb1def62addec0d5";
    "745f132a9f4a562490e0124753c628613eb5e01f";
    "2b3a911f6eea536176a13b53ebd7cb904d9b0fa2";
    "640a4b970f110e0401ab4f4f5b69adf344b0dd0d";
    "bafd66c677716439f129c10ff429fa9d431408ec";
  |]

let md5_by_length =
  [|
    "d41d8cd98f00b204e9800998ecf8427e";
    "55a54008ad1ba589aa210d2629c1df41";
    "f44d7fab86866af3bc1ed8af69d7a87d";
    "c9aee4810523ef8658121b8d492c6b41";
    "7b31cea375d4e548ef05d513710c9b32";
    "8f8b32bbebe2ae8072a68d94c6664c8f";
    "68fb9e3f167a7da59ae0c85747282163";
    "adf5384dcda0e6fe7da8c78e48eaaf6d";
    "915ec04d8618cc48a239e56cbcc2fcba";
    "762a8203663870695cadb49ebe7a1e84";
    "989fd0a1c0a7630afa7b739a8549f685";
    "448eac1a43b25320c6d51d15d811792e";
    "bf96dccfcaeaa2c46dfc9e3545e55437";
    "973864451161daa48ed87cd7cef14e1d";
    "63c6158611269bf7f9667e970c02229a";
    "7fb1346d8b2f017253571e374e79eac0";
    "2bdb3d1861c3275b8ab5c2123a8d5db3";
    "01244a77f184157a851b1badb589e526";
    "d37d117964ff3871e3f24daf4db291c6";
    "e2eadc7b4a496cbf56027bc342b7bad8";
    "4ef5b04fdbbd1af34a179eb26d569abc";
    "b1d2aa3b046d10e163d0b876cfa7e61d";
    "f6e278b2bac37e87ecdbc179b9f28d97";
    "b1d36a274dfc02cdee62564bfc9c378d";
    "02b4cca3366f638be40631b24778c060";
    "64845a6ef487fa83b05a547aa012417f";
    "9255f05275845785df47d98675fca42f";
    "3e978c034a10f179b34efc837a6b42d3";
    "41f2788c45e2797577f3a558bdf79c69";
    "426e36ee996985a2aee5c2fd7537fe57";
    "4755bc9a72dc24c7a337a9174b6501cd";
    "8eee3e71fe74437fa960b57deb2a52a9";
    "aace3cb31caaa3396c05bb6eac3c7c1a";
    "7ac99edacaa8b24cb019ac7c7f88c87e";
    "530ab203998defc479a8a9fd9b0e6b0d";
    "7ab44bc55c77ce185d4ab6f790f84de0";
    "28f7150374307deac0422e5e5d1a57f9";
    "3d7c141f1ce54ffa1fea540a63a73a58";
    "ecdf327cde893e9669e820253e51783f";
    "7ed1845570e6e0e6a70784d7b6663b28";
    "5fc95c21b90da699e7fcdfdc0b57ce57";
    "c8963c06d9982bd462c7da4a74710f90";
    "08e80a4b0a61acfd84ccbfa4e551ab4b";
    "9628620d2596dfdf7f139093207cf4b4";
    "15e1d6e38f858eff101559f0d6ee885f";
    "53a462e0cec318e76559986da3b96202";
    "5802d08ff0774a744d253d0e05002c0d";
    "29faa25931b4dbe24dd1a26d6b8d15c3";
    "9a04881b54370d27adf9328d451269ab";
    "f1af5f4a34451642a3cec481375b1986";
    "947ffdc24b967d0387ac4ae19a2bb298";
    "cf118a8ec7dd8abdacfc6f1cb214415d";
    "8f5f8c79c2d26ad6e670c3ec3d80f68a";
    "a7d723c5b8dffd9c2825d2669c75544f";
    "c6c0fc662f5f7f53209bd2676b345662";
    "f1289732253518750e22b62a571a1748";
    "179e3b9fa272a23e2a8b32bde1015414";
    "d5f0a59aa9d6d8164d3754fb91f67809";
    "0e21cc91b4ddd85d9ff2f026a4fd1790";
    "98233c11949b49f0358ee5124e00a3d9";
    "2591108aff8fb810320f8a04e7d2b18d";
    "ee2edb4e578348e98fd4184250b54851";
    "f3b2082af4e3f1fb1b9ff5a2108ff0f6";
    "dd785945d1d6b87eca0d276dbb8756fd";
    "e3ab394ce4eb7da020a27d2e2443143c";
    "28a6b0f918d9aea03e979a1657d8d0f6";
    "ece825e0758c603345b30a64debda4c7";
    "bb284481de7fc80dbb6667b47faa5d47";
    "cce41232105a15569fe8c145f5b819c9";
    "f071e699bc5a16372a8b7177c6ce5b9f";
    "3fda55753ae3d84943c5e28ad3ac64a8";
    "527f0d23c82606621d19bd676404cf35";
    "9db9853e76820f57e4b00f1c2b37b95b";
    "64b6fea57cf432d20e2b7204f495f3be";
    "3001bcefae4fb998931cd7bde70c2d1f";
    "3947c857a23cb3a7ee42b2c88a23b171";
    "32bb2706f3383236d6dfcccbf979aaf1";
    "ac4c3b2bf2d24cf5aa0cc53ee3518797";
    "1b67497944b00153e0a461bdb9a0f8fc";
    "0d7c26c3ef5410bb7acd39b0807092ae";
    "6ba4c47d9d4f3fff38977bd15f97db5e";
    "b4ac62165ad7ecafab2f719de4a584c6";
    "76fa4f07ae5c3dc911d962f09fa4b2f0";
    "cfa9681caeca02cafc6dc531fe0a4e3c";
    "6df5fd9dfe41592a3a18b5fd53bb043c";
    "681f878e6a12a3532eef0ce8a33c6d17";
    "18dcb70612244aa38ba8688066f4f34e";
    "7b4b4c323c644cb232ee9807347f85a9";
    "5f623685d9ba4d6f87decc325264516a";
    "a2b688aac795bc2f5f25ac9e150db53f";
    "60d00e2d8aea91a0bb6299d41587fcde";
    "7c48af536ef69d31afaa461570b03e3b";
    "564b6d99033c525bb784bf6b2618ce77";
    "b09d51e368ac401e247b200ca32c29df";
    "5e5dc7a3e92e2b244903c9d0bb66111e";
    "933182e62c8535cf7f5446db65f913b6";
    "f82a2897d22eb8d563d1ff75df6ba12e";
    "aa23d8c28fa1b6b02ab1da246f2ef488";
    "822da0509d429e7cf58280cdcecc256d";
    "39ba667b64cd64d8725e96e228ad5016";
    "7ba9582a10b992925940d6b95f60c3ca";
    "ebfde74855082dca3615e61710b2aab8";
    "2ded848ced4570e400a7910eeff9c596";
    "3471fa52714f2d541dc420badd1d52b4";
    "87c39cda708b6d722f6e39b473169665";
    "9e349bc953f6ab1cf30b3e3d5337f262";
    "6736d4f943c7fd6e67e6d3e385734c8c";
    "f521a0c2a04453033f36b4d401817156";
    "8909ebf52eb35d704f14b83e42c257a0";
    "0e6ec934559bf187985c386eb274c2b7";
    "1c9c7836df4d0a4c9ea89a26699f6725";
    "d54c1b85b05a0800af2c6d01394f0421";
    "80ddd4569b593235048eb5e2cdc38c8d";
    "e67d4fad620e75e8a485cb3a83abaf7f";
    "12abee7ffbd2b531d1d1ee63724e665d";
    "78e7eeb2cf746aef1242909450ee4e27";
    "f931f5e1ed481707e55f2ac3156e2a1b";
    "9eb6adb364e8e244ce7ac51dc819031d";
    "42a01c09c0e7349354695155b02c9b92";
    "d49720530a386a3191eac0dc840dd1bd";
    "8a440004b569286a42c722295ce1c5a6";
    "1f6329f06fb62076bef2278b7007e60f";
    "e1a3bf4f51fc2303e9a9e539b8c0d391";
    "4933c92034023989fc2aa04312ff1f4e";
    "310f261b36527c273d4996fd2f62a956";
    "6565d1a082d551bc7b36c711f5874b99";
    "2e8a7df351a8045c88e05eaa6684c212";
    "36d03458e8a745e61afcf02257826e12";
    "52cc29caecfd9380a2261a80c58e6787";
    "0fa5eac15b498f879494809c74939fc7";
    "30fa8fcebd7db5bf9aa8471419c8c7bc";
    "5f3b484a9ea7b265a6a60e6c1dd1bb7b";
    "eb41968e5a68ab69971aa492b902b41f";
    "9085568a1bd2d858f5ac2ffc6c10b91c";
    "ce6c904de83d58f3a11814828927f7ba";
    "e9a8a40e69f9c82ccb4e6b97f8a93e2f";
    "de636ba00ab76d397bf0e709e22b88c1";
    "31ab357f78327a0a5345a4722d2454fb";
    "805ca8181a697b0c1e4930d1f651d1f3";
    "b194b68b7b830f5a37633a3f9ea94eb3";
    "8ac3a04fee5905098664ae4ad4490bfb";
    "508209690426aeead403c9d211586fbc";
    "5bd886288220a35fdeb73b4b05f38250";
    "c316ead28c6ef0cfa20ea163bfd10a7d";
    "024d3632bc8f2a2feb783f898fe7c004";
    "93f8ffdfcfe36af3d591cb14c16ce46a";
    "17e8316b19c7e3e453406e28f94a8bd5";
    "cfe07d978b8e5771551218382b68fb6b";
    "d9106a89c03f1e251ea048f4237f6d78";
    "cb061cf4d79e0cfe0fdf62500d848a31";
    "faec0240acb483dc847add09f70e09d3";
    "683db19152aee195c51e310430243ecc";
    "e9a59a03cc550f19127864313f5de98c";
    "44128ed8cf0d80f382f82ede2dca4705";
    "39befbacaadae6baea8a0db74add955f";
    "0a0fe1951267f3888269324cb41cf5e2";
    "42fc05e8187caa4421906ee8f01f4d0c";
    "91d4c550cebb4f90d07b01e7d1cf7ef8";
    "bfc19d9f0d5b64aeb9cbb1edffe7dec9";
    "829bb52c21a1f5aebab0f0af0d055d06";
    "6dca6aac40fb716551e5ca6aa12643cd";
    "f746e29b8a3a41aeea4a7c361b8a1ee1";
    "3a5c7fb2d2d23d874f161dcfd2945249";
    "d9de30e4be43b37114b0bce200db23fd";
    "0ea5c8ee7c7ef2ed61db2ea65e170214";
    "51651c610761a8400fc0dbaf6051ef56";
    "0bd44f7919fc6d20c191a234a6b1a341";
    "85f66198751d47af050fef965556e1e5";
    "c30e1d774fcc2ed970b9c952aa0fcf55";
    "5c2c88a792fa721a19c0e8052433b73c";
    "f01721099a3a5f5083e5456350a83ec4";
    "ef7913c9535deebfe2c8d84cbf5653a7";
    "e52f89a8d9ee0214d61bba4f401e6f2f";
    "27c7abcc4458afab5f68d28b996779e6";
    "e3d3120d4b5698d7cca697c79b780066";
    "23f401172b88eea0435c70305fa98d46";
    "71a208faa06671965dd4cc32637f7981";
    "077f81f5eed7e3b66b3ab29b1897ad3e";
    "64bb4a5650614561f5ce2f2397c0bebd";
    "3e6d9b9c9a54a9a3f18e993caa86bc2e";
    "7f6fc001b1304bdb8885a8e151bb13b3";
    "bec18a0c11cca78586491ea88ead1e6c";
    "80f9c9de39e7b417aafa697ddcf85641";
    "e9f525589145227d3957ad4759c9744a";
    "6b12fc99080a2f7a6c26ac4a40b00f87";
    "d3572bf472110794e7a3d6a2832e96c1";
    "0e212d02691d22bf00236d112200bc46";
    "66bc98ebaaf3725ef3f7c6a5e52e933f";
    "6eb4484a10b8e83e47a09283166e085c";
    "ca65d65d1aa0d0947ec57f5ef627d32e";
    "f68481954c7f0304ee1606db8e8d2dc4";
    "050b3327d0ba3f19af2611aaad6df1d7";
    "ef204c6d4d11c8124b4f50a9c73d6cfc";
    "e6f959a0098b4ff7595064998feaaf90";
    "7d6e997fb5a8a8dffbb53a7920d1e68d";
    "0973ecca11ef37836f9990f5c91e3d9c";
    "dd1447010fb932ff197fde7fad8ac67a";
    "1cdc6243b93847efa9dae1ee739a8e1f";
    "b0bb38e9fe2d897ba83c176807ff511b";
    "4a80ba0482ee4283ca8053e025df5d63";
    "b0983ae447d393f829763d5b1a27d8f1";
  |]

let test_lengths hex table () =
  Array.iteri
    (fun n expected ->
      check (Printf.sprintf "%d bytes" n) expected (hex (length_input n)))
    table

let vec_tests name hex vectors =
  List.mapi
    (fun i (input, expected) ->
      Alcotest.test_case (Printf.sprintf "%s vector %d" name i) `Quick
        (fun () -> check input expected (hex input)))
    vectors

let test_million_a () =
  check "sha1 10^6 x a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Digest_algo.hex SHA1 (String.make 1_000_000 'a'));
  check "sha256 10^6 x a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_digest_sizes () =
  Alcotest.(check int) "md5" 16 (Digest_algo.size MD5);
  Alcotest.(check int) "sha1" 20 (Digest_algo.size SHA1);
  Alcotest.(check int) "sha256" 32 Sha256.digest_size;
  List.iter
    (fun a ->
      Alcotest.(check int)
        (Digest_algo.name a)
        (Digest_algo.size a)
        (String.length (Digest_algo.digest a "x")))
    Digest_algo.all

let test_algo_names () =
  Alcotest.(check (option string))
    "sha is sha1" (Some "sha1")
    (Option.map Digest_algo.name (Digest_algo.of_name "SHA"));
  Alcotest.(check (option string))
    "sha-256" (Some "sha256")
    (Option.map Digest_algo.name (Digest_algo.of_name "sha-256"));
  Alcotest.(check bool) "unknown" true (Digest_algo.of_name "blake2" = None)

(* A reset context must behave exactly like a fresh one, including
   after a digest that left buffered partial-block state behind. *)
let test_reset_reuse () =
  let inputs = [ ""; "abc"; String.make 200 'z'; "tail" ] in
  let sha1 = Digest_algo.init SHA1
  and sha256 = Sha256.init ()
  and md5 = Digest_algo.init MD5 in
  List.iter
    (fun s ->
      Digest_algo.reset sha1;
      Digest_algo.update sha1 s;
      check "sha1 reset" (Digest_algo.digest SHA1 s) (Digest_algo.final sha1);
      Sha256.reset sha256;
      Sha256.update sha256 s;
      check "sha256 reset" (Sha256.digest s) (Sha256.final sha256);
      Digest_algo.reset md5;
      Digest_algo.update md5 s;
      check "md5 reset" (Digest_algo.digest MD5 s) (Digest_algo.final md5))
    inputs

let test_hex_roundtrip () =
  let s = "\x00\x01\xfe\xff\x80 abc" in
  check "roundtrip" s (Digest_algo.of_hex (Digest_algo.to_hex s));
  Alcotest.check_raises "odd" (Invalid_argument "Digest_algo.of_hex: odd length")
    (fun () -> ignore (Digest_algo.of_hex "abc"))

(* Property: any split of the input through the incremental API gives
   the one-shot digest. *)
let prop_incremental algo =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s incremental = one-shot" (Digest_algo.name algo))
    ~count:200
    QCheck2.Gen.(
      pair (string_size ~gen:char (int_range 0 300)) (int_range 0 300))
    (fun (s, cut) ->
      let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
      let ctx = Digest_algo.init algo in
      Digest_algo.update ctx (String.sub s 0 cut);
      Digest_algo.update ctx (String.sub s cut (String.length s - cut));
      String.equal (Digest_algo.final ctx) (Digest_algo.digest algo s))

let prop_update_sub algo =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s update_sub window" (Digest_algo.name algo))
    ~count:200
    QCheck2.Gen.(string_size ~gen:char (int_range 0 400))
    (fun s ->
      let padded = "xx" ^ s ^ "yy" in
      let ctx = Digest_algo.init algo in
      Digest_algo.update_sub ctx padded 2 (String.length s);
      String.equal (Digest_algo.final ctx) (Digest_algo.digest algo s))

(* Property: a copy taken mid-stream shares no state with its source.
   Both are extended with different suffixes, and each must give the
   one-shot digest of its own whole input. *)
let prop_copy algo =
  QCheck2.Test.make
    ~name:(Printf.sprintf "%s copy is independent" (Digest_algo.name algo))
    ~count:200
    QCheck2.Gen.(
      triple
        (string_size ~gen:char (int_range 0 200))
        (string_size ~gen:char (int_range 0 200))
        (string_size ~gen:char (int_range 0 200)))
    (fun (prefix, a, b) ->
      let src = Digest_algo.init algo in
      Digest_algo.update src prefix;
      let dup = Digest_algo.copy src in
      Digest_algo.update dup b;
      Digest_algo.update src a;
      String.equal (Digest_algo.final src) (Digest_algo.digest algo (prefix ^ a))
      && String.equal (Digest_algo.final dup)
           (Digest_algo.digest algo (prefix ^ b)))

let prop_distinct =
  QCheck2.Test.make ~name:"distinct inputs hash apart (sha256)" ~count:300
    QCheck2.Gen.(pair (string_size ~gen:char (int_range 0 40)) (string_size ~gen:char (int_range 0 40)))
    (fun (a, b) ->
      QCheck2.assume (not (String.equal a b));
      not (String.equal (Sha256.digest a) (Sha256.digest b)))

(* The two SHA-256 kernels against each other, and each against the
   FIPS vectors: the portable C one is the oracle for the one on the
   x86 SHA extensions, which Block_hash selects when the CPU has them.
   Both are declared here, so that each is tested whichever one
   Sha256 runs on. *)
external sha256_portable : Bytes.t -> Bytes.t -> int -> unit
  = "tep_sha256_compress"
[@@noalloc]

external sha256_ni : Bytes.t -> Bytes.t -> int -> unit
  = "tep_sha256_compress_ni"
[@@noalloc]

(* SHA-256 of [msg] on [kernel] alone: FIPS 180 padding, then every
   block compressed from the initial state. *)
let sha256_with kernel msg =
  let n = String.length msg in
  let padded = Bytes.make ((n + 9 + 63) / 64 * 64) '\000' in
  Bytes.blit_string msg 0 padded 0 n;
  Bytes.set padded n '\x80';
  Bytes.set_int64_be padded (Bytes.length padded - 8) (Int64.of_int (8 * n));
  let state = Bytes.create 32 in
  List.iteri
    (fun i w -> Bytes.set_int32_ne state (4 * i) w)
    [ 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
      0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l ];
  for b = 0 to (Bytes.length padded / 64) - 1 do
    kernel state padded (64 * b)
  done;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Bytes.get_int32_ne state (4 * i))
  done;
  Bytes.to_string out

let test_kernel_vectors kernel () =
  List.iter
    (fun (input, expected) ->
      check input expected (Digest_algo.to_hex (sha256_with kernel input)))
    (sha256_vectors
    @ List.map (fun n -> (length_input n, sha256_by_length.(n))) [ 55; 56; 64; 200 ])

(* Random chaining states and blocks at every offset 0..63 of a
   127-byte buffer: one compression each, the same result from both. *)
let prop_kernels_agree =
  QCheck2.Test.make ~name:"sha256 kernels agree at every offset" ~count:200
    QCheck2.Gen.(
      pair (string_size ~gen:char (return 32)) (string_size ~gen:char (return 127)))
    (fun (state, buf) ->
      let buf = Bytes.of_string buf in
      List.for_all
        (fun off ->
          let a = Bytes.of_string state and b = Bytes.of_string state in
          sha256_portable a buf off;
          sha256_ni b buf off;
          Bytes.equal a b)
        (List.init 64 Fun.id))

(* Chains of 1..16 blocks from a random state: the two states agree
   after every block. *)
let prop_kernel_chains =
  QCheck2.Test.make ~name:"sha256 kernels agree along block chains" ~count:200
    QCheck2.Gen.(
      pair
        (string_size ~gen:char (return 32))
        (int_range 1 16 >>= fun n -> string_size ~gen:char (return (64 * n))))
    (fun (state, msg) ->
      let msg = Bytes.of_string msg in
      let a = Bytes.of_string state and b = Bytes.of_string state in
      List.for_all
        (fun blk ->
          sha256_portable a msg (64 * blk);
          sha256_ni b msg (64 * blk);
          Bytes.equal a b)
        (List.init (Bytes.length msg / 64) Fun.id))

(* Without the SHA extensions the kernel cannot run: its checks are
   listed as skipped, not dropped. *)
let sha_ni_tests =
  if Block_hash.sha_ni then
    Alcotest.test_case "fips vectors, sha-ni kernel" `Quick
      (test_kernel_vectors sha256_ni)
    :: List.map QCheck_alcotest.to_alcotest
         [ prop_kernels_agree; prop_kernel_chains ]
  else
    [
      Alcotest.test_case "sha-ni kernel (no SHA extensions on this CPU)"
        `Quick (fun () -> Alcotest.skip ());
    ]

let () =
  Alcotest.run "digest"
    [
      ("sha1-vectors", vec_tests "sha1" (Digest_algo.hex SHA1) sha1_vectors);
      ("sha256-vectors", vec_tests "sha256" Sha256.hex sha256_vectors);
      ("md5-vectors", vec_tests "md5" (Digest_algo.hex MD5) md5_vectors);
      ( "unit",
        [
          Alcotest.test_case "million a" `Slow test_million_a;
          Alcotest.test_case "digest sizes" `Quick test_digest_sizes;
          Alcotest.test_case "algo names" `Quick test_algo_names;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "reset reuse" `Quick test_reset_reuse;
          Alcotest.test_case "sha256 lengths 0..200" `Quick
            (test_lengths Sha256.hex sha256_by_length);
          Alcotest.test_case "sha1 lengths 0..200" `Quick
            (test_lengths (Digest_algo.hex SHA1) sha1_by_length);
          Alcotest.test_case "md5 lengths 0..200" `Quick
            (test_lengths (Digest_algo.hex MD5) md5_by_length);
        ] );
      ( "sha256-kernels",
        Alcotest.test_case "fips vectors, portable kernel" `Quick
          (test_kernel_vectors sha256_portable)
        :: sha_ni_tests );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          ([ prop_distinct ]
          @ List.map prop_incremental Digest_algo.all
          @ List.map prop_update_sub Digest_algo.all
          @ List.map prop_copy Digest_algo.all) );
    ]
