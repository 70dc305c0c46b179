type suite = Spec2006 | Spec2017 | Coreutils | Openssl | Botnet

type benchmark = {
  bname : string;
  suite : suite;
  source : string;
  workloads : int array list;
}

let suite_name = function
  | Spec2006 -> "SPECint 2006"
  | Spec2017 -> "SPECspeed 2017"
  | Coreutils -> "Coreutils"
  | Openssl -> "OpenSSL"
  | Botnet -> "IoT botnet"

let mk bname suite source workloads = { bname; suite; source; workloads }

let std_workloads = [ [| 0 |]; [| 1 |]; [| 7 |]; [| 13; 4 |] ]

let all =
  [
    mk "400.perlbench" Spec2006 Spec2006.perlbench_400 std_workloads;
    mk "401.bzip2" Spec2006 Spec2006.bzip2_401 std_workloads;
    mk "429.mcf" Spec2006 Spec2006.mcf_429 std_workloads;
    mk "445.gobmk" Spec2006 Spec2006.gobmk_445 std_workloads;
    mk "456.hmmer" Spec2006 Spec2006.hmmer_456 std_workloads;
    mk "458.sjeng" Spec2006 Spec2006.sjeng_458 std_workloads;
    mk "462.libquantum" Spec2006 Spec2006.libquantum_462 std_workloads;
    mk "464.h264ref" Spec2006 Spec2006.h264ref_464 std_workloads;
    mk "473.astar" Spec2006 Spec2006.astar_473 std_workloads;
    mk "483.xalancbmk" Spec2006 Spec2006.xalancbmk_483 std_workloads;
    mk "600.perlbench_s" Spec2017 Spec2017.perlbench_600 std_workloads;
    mk "605.mcf_s" Spec2017 Spec2017.mcf_605 std_workloads;
    mk "620.omnetpp_s" Spec2017 Spec2017.omnetpp_620 std_workloads;
    mk "623.xalancbmk_s" Spec2017 Spec2017.xalancbmk_623 std_workloads;
    mk "625.x264_s" Spec2017 Spec2017.x264_625 std_workloads;
    mk "631.deepsjeng_s" Spec2017 Spec2017.deepsjeng_631 std_workloads;
    mk "641.leela_s" Spec2017 Spec2017.leela_641 std_workloads;
    mk "648.exchange2_s" Spec2017 Spec2017.exchange2_648 std_workloads;
    mk "657.xz_s" Spec2017 Spec2017.xz_657 std_workloads;
    mk "coreutils" Coreutils Apps.coreutils
      [ [| 0; 0 |]; [| 1; 2 |]; [| 5; 9 |]; [| 11; 3 |] ];
    mk "openssl" Openssl Apps.openssl std_workloads;
    mk "lightaidra" Botnet Botnet.lightaidra std_workloads;
    mk "bashlife" Botnet Botnet.bashlife std_workloads;
    mk "mirai" Botnet Botnet.mirai std_workloads;
  ]

let evaluation_set = List.filter (fun b -> b.suite <> Botnet) all

let find name = List.find (fun b -> b.bname = name) all

(* mutex-protected: benchmarks are compiled from worker domains under
   the parallel tuning engine, and this cache is the one piece of shared
   mutable state on that path (the cached AST itself is immutable — all
   AST passes return fresh programs) *)
let cache : (string, Minic.Ast.program) Hashtbl.t = Hashtbl.create 24

let cache_mutex = Mutex.create ()

let program b =
  Mutex.lock cache_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache_mutex)
    (fun () ->
      match Hashtbl.find_opt cache b.bname with
      | Some p -> p
      | None ->
        let p = Minic.Sema.analyze b.source in
        Hashtbl.replace cache b.bname p;
        p)
