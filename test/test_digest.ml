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

let test_sha256_lengths () =
  Array.iteri
    (fun n expected ->
      check (Printf.sprintf "%d bytes" n) expected (Sha256.hex (length_input n)))
    sha256_by_length

let vec_tests name hex vectors =
  List.mapi
    (fun i (input, expected) ->
      Alcotest.test_case (Printf.sprintf "%s vector %d" name i) `Quick
        (fun () -> check input expected (hex input)))
    vectors

let test_million_a () =
  check "sha1 10^6 x a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hex (String.make 1_000_000 'a'));
  check "sha256 10^6 x a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_digest_sizes () =
  Alcotest.(check int) "md5" 16 Md5.digest_size;
  Alcotest.(check int) "sha1" 20 Sha1.digest_size;
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
  let sha1 = Sha1.init () and sha256 = Sha256.init () and md5 = Md5.init () in
  List.iter
    (fun s ->
      Sha1.reset sha1;
      Sha1.update sha1 s;
      check "sha1 reset" (Sha1.digest s) (Sha1.final sha1);
      Sha256.reset sha256;
      Sha256.update sha256 s;
      check "sha256 reset" (Sha256.digest s) (Sha256.final sha256);
      Md5.reset md5;
      Md5.update md5 s;
      check "md5 reset" (Md5.digest s) (Md5.final md5))
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

let prop_distinct =
  QCheck2.Test.make ~name:"distinct inputs hash apart (sha256)" ~count:300
    QCheck2.Gen.(pair (string_size ~gen:char (int_range 0 40)) (string_size ~gen:char (int_range 0 40)))
    (fun (a, b) ->
      QCheck2.assume (not (String.equal a b));
      not (String.equal (Sha256.digest a) (Sha256.digest b)))

let () =
  Alcotest.run "digest"
    [
      ("sha1-vectors", vec_tests "sha1" Sha1.hex sha1_vectors);
      ("sha256-vectors", vec_tests "sha256" Sha256.hex sha256_vectors);
      ("md5-vectors", vec_tests "md5" Md5.hex md5_vectors);
      ( "unit",
        [
          Alcotest.test_case "million a" `Slow test_million_a;
          Alcotest.test_case "digest sizes" `Quick test_digest_sizes;
          Alcotest.test_case "algo names" `Quick test_algo_names;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "reset reuse" `Quick test_reset_reuse;
          Alcotest.test_case "sha256 lengths 0..200" `Quick test_sha256_lengths;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          ([ prop_distinct ]
          @ List.map prop_incremental Digest_algo.all
          @ List.map prop_update_sub Digest_algo.all) );
    ]
