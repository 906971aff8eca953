(* Golden study bits.  Every figure of every cell of Tables 2-3 is pinned
   here as the Int64 bits of its floats, at seed 42 over 40,360 days
   (about 18,800 transitions of the Table 1 failure trace), together with
   the ODV/OTDV cells under eager recovery and the exact sequence of
   availability changes one [run_drivers] call reports.  Any change to
   the simulation loop, the policies or the decision rule must leave
   these untouched: never re-promote a golden value to make a refactor
   pass. *)

module Study = Dynvote_sim.Study
module Config = Dynvote_sim.Config

let parameters = { Study.default_parameters with Study.horizon = 40_360.0 }

let hex x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

let line name (s : Study.summary) =
  let i = s.interval in
  Printf.sprintf "%s %d %d %s" name i.Dynvote_stats.Batch_means.batches s.outages
    (String.concat " "
       (List.map hex
          [ i.mean; i.half_width; i.lower; i.upper; s.unavailability; s.mean_outage_days;
            s.longest_up_days; s.observed_days ]))

let result_line (r : Study.result) =
  line (Config.label r.config ^ " " ^ Policy.kind_name r.kind)
    { interval = r.interval; unavailability = r.unavailability;
      mean_outage_days = r.mean_outage_days; outages = r.outages;
      longest_up_days = r.longest_up_days; observed_days = r.observed_days }

let table_lines ?recovery ?kinds ~jobs () =
  List.map result_line (Study.run ~parameters ?recovery ?kinds ~jobs ())

(* The drivers of configurations E and F, keyed by label and kind, with
   every availability change they report in order. *)
let observed () =
  let topology = Dynvote_net.Topology.ucsd in
  let n_sites = Dynvote_net.Topology.n_sites topology in
  let drivers =
    List.concat_map
      (fun label ->
        let config = Option.get (Config.find label) in
        List.map
          (fun kind ->
            ( label ^ " " ^ Policy.kind_name kind,
              Driver.of_policy
                (Policy.create kind ~universe:(Config.copies config) ~n_sites
                   ~segment_of:(Dynvote_net.Topology.segment_of topology)
                   ~ordering:(Ordering.default n_sites)) ))
          Policy.all_kinds)
      [ "E"; "F" ]
  in
  let events = Buffer.create 4096 and count = ref 0 in
  let observe key ~time ~available =
    incr count;
    Printf.bprintf events "%s %s %b\n" key (hex time) available
  in
  let summaries = Study.run_drivers ~parameters ~observe ~drivers () in
  ( List.map (fun (key, s) -> line key s) summaries,
    !count,
    Digest.to_hex (Digest.string (Buffer.contents events)) )

let expected_tables =
  [
    "A MCV 20 654 3f5ab041d6e7ce85 3f3febf22344d65d 3f52b5454e1698ee 3f61559f2fdc820e 3f5ab041d6e7ce84 3fb9814c3a964946 40846d8ec96dd6c0 40e3880000000000";
    "A DV 20 644 3f7259cfe3a66d90 3f5d09d3f3821f9d 3f662eb5cd8bcb52 3f799c44e086f577 3f7259cfe3a66d90 3fd1cf36471203c5 40846d8ec96dd6c0 40e3880000000000";
    "A LDV 20 189 3f306d831fbc85f0 3f064179dca5d625 3f2b4aa7c84f9657 3f3335b25b5140b5 3f306d831fbc85f0 3fab298efc433991 408fad6777361888 40e3880000000000";
    "A ODV 20 221 3f39e2844078930b 3f247d00c3d28f55 3f2f4807bd1e96c1 3f4210825130ed5b 3f39e2844078930c 3fb24d09859e39a1 408c1f0000000000 40e3880000000000";
    "A TDV 20 5 3ed1be45f72e48e9 3edb5f7faccd755d bec342736b3e58e8 3ee68ee2d1fddf23 3ed1be45f72e48e9 3fa153d053633333 40ccd40000000000 40e3880000000000";
    "A OTDV 20 5 3ed1be45f72e48e9 3edb5f7faccd755d bec342736b3e58e8 3ee68ee2d1fddf23 3ed1be45f72e48e9 3fa153d053633333 40ccd40000000000 40e3880000000000";
    "B MCV 20 1321 3f6c05b4dd9ab920 3f4fa2e46f35f719 3f641cfbc1cd3b5a 3f71f736fcb41b73 3f6c05b4dd9ab920 3fba8423e09da5ae 4077b2c426519fa0 40e3880000000000";
    "B DV 20 1304 3f7d7dfbb243b1a3 3f67d9945c1dab8c 3f7191318434dbdd 3f84b562f02943b4 3f7d7dfbb243b1a2 3fcc45549c5ace02 4077b2c426519fa0 40e3880000000000";
    "B LDV 20 367 3f3e73bacad0c226 3f05e55a9b9e8d11 3f3bb70f775cf084 3f4098330f2249e4 3f3e73bacad0c227 3fa9ee0d9d59ddd2 40881809bc074600 40e3880000000000";
    "B ODV 20 414 3f45c5b174cc799a 3f276a8f95074d32 3f3fd61b1f154c9b 3f4ba0555a0e4ce6 3f45c5b174cc799a 3fb06f32297a3081 40881809bc074600 40e3880000000000";
    "B TDV 20 24 3ef46e54a17c154d 3ef3814b036dabaa 3eada133c1cd3460 3f03f7cfd274e07c 3ef46e54a17c154d 3fa0a07434bffaab 40b53e1cad27a23a 40e3880000000000";
    "B OTDV 20 34 3ef7863d50c7a787 3eefdb57c5c88607 3ede6245b78d920e 3f03b9f499d5f545 3ef7863d50c7a787 3f9b06eeea7470f1 40ac73a455286518 40e3880000000000";
    "C MCV 20 821 3f9a1bf26f38a9cd 3f74dd58e6783657 3f94e49c359a9c37 3f9f5348a8d6b763 3f9a1bf26f38a9cd 3ff3e0444016de2f 4072f0e1a4671ee0 40e3880000000000";
    "C DV 20 767 3fa611e18cbda04f 3f7f121d0a1e0e84 3fa22f9deb79de7e 3fa9f4252e016220 3fa611e18cbda04f 4001fbe12deda0ac 4072f0e1a4671ee0 40e3880000000000";
    "C LDV 20 471 3f44715b832c0c7c 3f0a0ee560dd62dc 3f42d06d2d1e364e 3f461249d939e2aa 3f44715b832c0c7e 3fab2079fa276d85 4081c3ad4444ba20 40e3880000000000";
    "C ODV 20 503 3f55a92441bfdde6 3f47ddc696df31e2 3f437481eca089ea 3f60cc03c697bb6c 3f55a92441bfdde7 3fbaea1625ed629c 4081c3ad4444ba20 40e3880000000000";
    "C TDV 20 471 3f44715b832c0c7c 3f0a0ee560dd62dc 3f42d06d2d1e364e 3f461249d939e2aa 3f44715b832c0c7e 3fab2079fa276d85 4081c3ad4444ba20 40e3880000000000";
    "C OTDV 20 503 3f55a92441bfdde6 3f47ddc696df31e2 3f437481eca089ea 3f60cc03c697bb6c 3f55a92441bfdde7 3fbaea1625ed629c 4081c3ad4444ba20 40e3880000000000";
    "D MCV 20 724 3fae066cf4a317c2 3f80e5aa67f967fb 3fa9cd025aa4bdc3 3fb11febc750b8e0 3fae066cf4a317c2 4009eb6197c831db 4081e382352ed5e0 40e3880000000000";
    "D DV 20 622 3fbad56cdb1b8a75 3f8809fad992cb4c 3fb7d42d7fe9310c 3fbdd6ac364de3de 3fbad56cdb1b8a75 401af68eb7f21ac4 4081d738408f5440 40e3880000000000";
    "D LDV 20 301 3faafb6b157ac856 3f7f26fd7aa3c91a 3fa7168b66264f33 3faee04ac4cf4179 3faafb6b157ac855 401c0352aef6f7f6 408976e572d8e6c0 40e3880000000000";
    "D ODV 20 331 3fabb1575fe34ee0 3f7cb632614fc0a2 3fa81a9113b956cc 3faf481dac0d46f4 3fabb1575fe34ee0 401a251bf7251ae6 408976e572d8e6c0 40e3880000000000";
    "D TDV 20 186 3f9ff10f2f800c80 3f78c7269fc60c31 3f99bf45878e8974 3fa3116c6bb8c7c6 3f9ff10f2f800c81 401ad52b615d75dc 409325b6d08e5e00 40e3880000000000";
    "D OTDV 20 191 3f9f86b4b165035d 3f77a9fe9deb51cd 3f999c3509ea2eea 3fa2b89a2c6febe8 3f9f86b4b165035e 4019ca582c98aaa1 409325b6d08e5e00 40e3880000000000";
    "E MCV 20 190 3f2f2565b516f5c2 3f021b8d42b1f6a2 3f2a9e82646a781a 3f31d62482e1b9b5 3f2f2565b516f5c3 3fa99d11f4ec250d 408fad6777361888 40e3880000000000";
    "E DV 20 5 3ed2918b668a71de 3edb575f9be60ffa bec18ba86ab73c38 3ee6f475813840ec 3ed2918b668a71de 3fa2222222233333 40ccd40000000000 40e3880000000000";
    "E LDV 20 5 3ed2918b668a71de 3edb575f9be60ffa bec18ba86ab73c38 3ee6f475813840ec 3ed2918b668a71de 3fa2222222233333 40ccd40000000000 40e3880000000000";
    "E ODV 20 33 3f0454ab591b8867 3ef230e3dcd2d431 3ef67872d5643c9d 3f0d6d1d4784f280 3f0454ab591b8866 3fa810d48615707c 40b0dac98a3caf40 40e3880000000000";
    "E TDV 20 0 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 7ff8000000000001 40e3b50000000000 40e3880000000000";
    "E OTDV 20 0 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 7ff8000000000001 40e3b50000000000 40e3880000000000";
    "F MCV 20 832 3f5e31cfc1acdd93 3f403b88442049cb 3f56140b9f9cb8ae 3f6327c9f1de813c 3f5e31cfc1acdd91 3fb6aea63890ef0f 407e2f6b333b7900 40e3880000000000";
    "F DV 20 646 3fb9ef818ebd2d18 3f82020d63a2d865 3fb7af3fe248d20b 3fbc2fc33b318825 3fb9ef818ebd2d18 401917abb6162284 4074c1b23187a000 40e3880000000000";
    "F LDV 20 179 3f68edb1bdff87f0 3f5e4e07e74f5297 3f538d5b94afbd49 3f740a5ad8d3989e 3f68edb1bdff87f0 3fe5c29cf0939ceb 408fad6777361888 40e3880000000000";
    "F ODV 20 215 3f60a5c523d43ced 3f581b7114470b76 3f42603266c2dcc8 3f6cb37dadf7c2a8 3f60a5c523d43cee 3fd8326ee9a89418 408c1f0000000000 40e3880000000000";
    "F TDV 20 5 3ed1be45f72e48e9 3edb5f7faccd755d bec342736b3e58e8 3ee68ee2d1fddf23 3ed1be45f72e48e9 3fa153d053633333 40ccd40000000000 40e3880000000000";
    "F OTDV 20 5 3ed1be45f72e48e9 3edb5f7faccd755d bec342736b3e58e8 3ee68ee2d1fddf23 3ed1be45f72e48e9 3fa153d053633333 40ccd40000000000 40e3880000000000";
    "G MCV 20 600 3f4cb062f40deb1b 3f272185d25e5f92 3f46e8017f765336 3f513c623452c180 3f4cb062f40deb1c 3fade267138e7f93 408185d3ec2f2d60 40e3880000000000";
    "G DV 20 152 3f566d9d772edb71 3f5c5b1eaebf9a52 bf37b604de42fb84 3f69645e12f73ae2 3f566d9d772edb71 3fd70e2757916e36 409cf17c696ee0f0 40e3880000000000";
    "G LDV 20 42 3f034cdf8136c8b4 3ef510a515c57d18 3ef18919eca81450 3f0dd5320c198740 3f034cdf8136c8b4 3fa1f34e5951cf3d 40b3234d8e049a67 40e3880000000000";
    "G ODV 20 97 3f2075f71468d42b 3f033fd6be5c91d1 3f174c02c9a35f6e 3f2545ecc3fff89f 3f2075f71468d42c 3faa83f596faacde 409c7e4f13e78100 40e3880000000000";
    "G TDV 20 8 3ee0ee1d37d8793e 3eeb2889219f04fd bed474d7d38d177e 3ef60b532cbbbf1e 3ee0ee1d37d8793e 3fa4aaaaaaabc000 40bef00db9aee191 40e3880000000000";
    "G OTDV 20 21 3ef204b1fc6ced92 3eef27027727ec6b 3ec3898606c7bae4 3f00cc199c0071e4 3ef204b1fc6ced91 3fa0c214c6948c31 40b2de42d2a5a110 40e3880000000000";
    "H MCV 20 455 3f413e6301e5d525 3f172e728168bc5a 3f3cb12963717b34 3f4424315212ecb0 3f413e6301e5d525 3fa7afb7d2c85d0c 4082fedfc6951d80 40e3880000000000";
    "H DV 20 524 3f61688c4919d4b2 3f5444e00b374909 3f4d18710df8c0b6 3f6b8afc4eb57936 3f61688c4919d4b3 3fc4c38a032911ba 4070de0000000000 40e3880000000000";
    "H LDV 20 27 3efc2ea5a6b4f768 3eee7475f3957268 3ee9e8d559d47c68 3f05b470503fd84e 3efc2ea5a6b4f766 3fa462edc12f5a13 40b8ea4c886f4cc4 40e3880000000000";
    "H ODV 20 85 3f1a58f120ba12d8 3efdd644052ce5bd 3f12e3601f6ed969 3f20e7411102a624 3f1a58f120ba12d7 3fa83765277dd8d9 409ddc13aaea3e50 40e3880000000000";
    "H TDV 20 3 3ecf4fc7ee2b6ae8 3edb67616c0cb919 bec77efae9ee074a 3ee587a2b1913746 3ecf4fc7ee2b6ae8 3fa97b425ed2aaab 40ce690000000000 40e3880000000000";
    "H OTDV 20 19 3ee0aca9b47374bc 3edb7f5c7fafba3f 3eb767dba4dcbce4 3eee6c57f44b51dc 3ee0aca9b47374bc 3f912404583bbca2 40ba991a713e2cbc 40e3880000000000";
  ]

let expected_at_repair =
  [
    "A ODV 20 206 3f38a038f54129c7 3f247f232d45d125 3f2cc14ebd3c8269 3f416fe545f2092d 3f38a038f54129c7 3fb2adb8df4e51b5 408c1f0000000000 40e3880000000000";
    "A OTDV 20 5 3ed1be45f72e48e9 3edb5f7faccd755d bec342736b3e58e8 3ee68ee2d1fddf23 3ed1be45f72e48e9 3fa153d053633333 40ccd40000000000 40e3880000000000";
    "B ODV 20 396 3f45148e5dcab390 3f2762348395bb04 3f3e780279ca899e 3f4aed1b7eb02251 3f45148e5dcab38f 3fb0a2a55b7833d7 40881809bc074600 40e3880000000000";
    "B OTDV 20 24 3ee9e255e5ce6320 3eeaa1fe83c5d014 be97f513beed9e80 3efa422a34ca199a 3ee9e255e5ce6320 3f95108692044aab 40b53e1cad27a23a 40e3880000000000";
    "C ODV 20 497 3f5230231e191fda 3f44d8414de211cc 3f3f1009dca05bd0 3f5c9c43c50a28c0 3f5230231e191fd9 3fb6df4da48fe283 4081c3ad4444ba20 40e3880000000000";
    "C OTDV 20 497 3f5230231e191fda 3f44d8414de211cc 3f3f1009dca05bd0 3f5c9c43c50a28c0 3f5230231e191fd9 3fb6df4da48fe283 4081c3ad4444ba20 40e3880000000000";
    "D ODV 20 324 3fab9387a4f5d373 3f7d155797b51bbd 3fa7f0dcb1ff2ffb 3faf363297ec76eb 3fab9387a4f5d371 401a98f5caf5007b 408976e572d8e6c0 40e3880000000000";
    "D OTDV 20 187 3f9fcff44a32898a 3f77db4bf083c2db 3f99d9214e1198d3 3fa2e363a329bd20 3f9fcff44a328989 401a94c64d0e29ae 409325b6d08e5e00 40e3880000000000";
    "E ODV 20 31 3f0282a2b3725e36 3ef24d88b3d3c274 3ef2b7bcb310f9f8 3f0ba9670d5c3f70 3f0282a2b3725e35 3fa753101cf4c211 40b0dac98a3caf40 40e3880000000000";
    "E OTDV 20 0 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 7ff8000000000001 40e3b50000000000 40e3880000000000";
    "F ODV 20 208 3f5d44ac7a9c271d 3f57a285e67e500c 3f36889a50775c44 3f6a7399308d3b94 3f5d44ac7a9c271e 3fd5fc82cc1ad73b 408c1f0000000000 40e3880000000000";
    "F OTDV 20 5 3ed1be45f72e48e9 3edb5f7faccd755d bec342736b3e58e8 3ee68ee2d1fddf23 3ed1be45f72e48e9 3fa153d053633333 40ccd40000000000 40e3880000000000";
    "G ODV 20 91 3f1fa5b4e80e5fd8 3f011c3f116c7e50 3f1717955f5820b0 3f2419ea38624f80 3f1fa5b4e80e5fd9 3fab2b72df22d89e 409c7e4f13e78100 40e3880000000000";
    "G OTDV 20 16 3eea9203ce9cd35b 3eedc35421d025e5 beb98a82999a9450 3efc2aabf8367ca0 3eea9203ce9cd35b 3fa0379ed2db3800 40b733ff57e9c1f4 40e3880000000000";
    "H ODV 20 80 3f19994aab291340 3efc9838a1561e35 3f12733c82d38bb3 3f205fac69bf4d67 3f19994aab291340 3fa8ffb2eb261ccd 40a2928299cc1584 40e3880000000000";
    "H OTDV 20 16 3edcfad841b62b6b 3edb200137c1e6c1 3e9dad709f444aa0 3eec0d6cbcbc0916 3edcfad841b62b6b 3f91b01a7e1b7000 40c108117518cff0 40e3880000000000";
  ]

let expected_observed =
  ( [
      "E MCV 20 190 3f2f2565b516f5c2 3f021b8d42b1f6a2 3f2a9e82646a781a 3f31d62482e1b9b5 3f2f2565b516f5c3 3fa99d11f4ec250d 408fad6777361888 40e3880000000000";
      "E DV 20 5 3ed2918b668a71de 3edb575f9be60ffa bec18ba86ab73c38 3ee6f475813840ec 3ed2918b668a71de 3fa2222222233333 40ccd40000000000 40e3880000000000";
      "E LDV 20 5 3ed2918b668a71de 3edb575f9be60ffa bec18ba86ab73c38 3ee6f475813840ec 3ed2918b668a71de 3fa2222222233333 40ccd40000000000 40e3880000000000";
      "E ODV 20 33 3f0454ab591b8867 3ef230e3dcd2d431 3ef67872d5643c9d 3f0d6d1d4784f280 3f0454ab591b8866 3fa810d48615707c 40b0dac98a3caf40 40e3880000000000";
      "E TDV 20 0 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 7ff8000000000001 40e3b50000000000 40e3880000000000";
      "E OTDV 20 0 0000000000000000 0000000000000000 0000000000000000 0000000000000000 0000000000000000 7ff8000000000001 40e3b50000000000 40e3880000000000";
      "F MCV 20 832 3f5e31cfc1acdd93 3f403b88442049cb 3f56140b9f9cb8ae 3f6327c9f1de813c 3f5e31cfc1acdd91 3fb6aea63890ef0f 407e2f6b333b7900 40e3880000000000";
      "F DV 20 646 3fb9ef818ebd2d18 3f82020d63a2d865 3fb7af3fe248d20b 3fbc2fc33b318825 3fb9ef818ebd2d18 401917abb6162284 4074c1b23187a000 40e3880000000000";
      "F LDV 20 179 3f68edb1bdff87f0 3f5e4e07e74f5297 3f538d5b94afbd49 3f740a5ad8d3989e 3f68edb1bdff87f0 3fe5c29cf0939ceb 408fad6777361888 40e3880000000000";
      "F ODV 20 215 3f60a5c523d43ced 3f581b7114470b76 3f42603266c2dcc8 3f6cb37dadf7c2a8 3f60a5c523d43cee 3fd8326ee9a89418 408c1f0000000000 40e3880000000000";
      "F TDV 20 5 3ed1be45f72e48e9 3edb5f7faccd755d bec342736b3e58e8 3ee68ee2d1fddf23 3ed1be45f72e48e9 3fa153d053633333 40ccd40000000000 40e3880000000000";
      "F OTDV 20 5 3ed1be45f72e48e9 3edb5f7faccd755d bec342736b3e58e8 3ee68ee2d1fddf23 3ed1be45f72e48e9 3fa153d053633333 40ccd40000000000 40e3880000000000";
    ],
    4265,
    "8e3b41cd120c352de6d7383ae245b3dd" )

let check_lines name expected actual = Alcotest.(check (list string)) name expected actual

let test_tables_j1 () = check_lines "48 cells at -j1" expected_tables (table_lines ~jobs:1 ())

let test_tables_j2 () = check_lines "48 cells at -j2" expected_tables (table_lines ~jobs:2 ())

let test_at_repair () =
  check_lines "ODV/OTDV under eager recovery" expected_at_repair
    (table_lines ~recovery:`At_repair ~kinds:[ Policy.Odv; Policy.Otdv ] ~jobs:1 ())

let test_observed () =
  let lines, count, digest = observed () in
  let expected_lines, expected_count, expected_digest = expected_observed in
  check_lines "E/F driver summaries" expected_lines lines;
  Alcotest.(check int) "availability changes" expected_count count;
  Alcotest.(check string) "availability change sequence" expected_digest digest

let suite =
  [
    Alcotest.test_case "golden: 48 cells at -j1" `Quick test_tables_j1;
    Alcotest.test_case "golden: 48 cells at -j2" `Quick test_tables_j2;
    Alcotest.test_case "golden: ODV/OTDV at repair" `Quick test_at_repair;
    Alcotest.test_case "golden: run_drivers observe sequence" `Quick test_observed;
  ]
