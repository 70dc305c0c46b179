(* VX virtual machine semantics: edge cases the differential tests do not
   isolate — traps, fuel, calling convention details, arithmetic corner
   cases, and the IR interpreter / VM agreement on them. *)

let compile src =
  Toolchain.Pipeline.compile_preset Toolchain.Flags.gcc "O1"
    (Minic.Sema.analyze src)

let run ?(input = [||]) src =
  let r = Vm.Machine.run (compile src) ~input in
  (Vir.Interp.output_to_string r.output, r.return_value)

let test_division_semantics () =
  let out, _ =
    run
      "int main() { print_int(7 / 2); print_int(-7 / 2); print_int(7 % -2); print_int(5 / 0); print_int(5 % 0); return 0; }"
  in
  (* C-style truncation toward zero; division by zero is total (0) *)
  Alcotest.(check string) "division" "3\n-3\n1\n0\n0\n" out

let test_shift_semantics () =
  let out, _ =
    run
      "int main() { print_int(1 << 10); print_int(-16 >> 2); print_int(3 << 0); return 0; }"
  in
  Alcotest.(check string) "shifts" "1024\n-4\n3\n" out

let test_deep_recursion () =
  let _, rv =
    run
      "int down(int n) { if (n <= 0) { return 0; } return down(n - 1) + 1; } int main() { return down(5000) & 255; }"
  in
  Alcotest.(check int) "deep recursion survives" (5000 land 255) rv

let test_stack_overflow_traps () =
  let src = "int forever(int n) { return forever(n + 1); } int main() { return forever(0); }" in
  match Vm.Machine.run ~fuel:50_000_000 (compile src) ~input:[||] with
  | exception Vm.Machine.Trap _ -> ()
  | exception Vm.Machine.Out_of_fuel -> ()
  | _ -> Alcotest.fail "unbounded recursion must trap or exhaust fuel"

let test_fuel_exhaustion () =
  let src = "int main() { int x = 0; while (1) { x++; } return x; }" in
  match Vm.Machine.run ~fuel:10_000 (compile src) ~input:[||] with
  | exception Vm.Machine.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected Out_of_fuel"

let test_oob_data_traps () =
  (* an out-of-bounds global store traps rather than corrupting memory;
     the index must escape the whole data segment, not just the array *)
  let src = "int a[4]; int main() { a[1000000] = 1; return 0; }" in
  match Vm.Machine.run (compile src) ~input:[||] with
  | exception Vm.Machine.Trap _ -> ()
  | _ -> Alcotest.fail "expected trap"

let test_input_conventions () =
  let out, _ =
    run ~input:[| 11; 22 |]
      "int main() { print_int(input(0)); print_int(input(1)); print_int(input(99)); print_int(input_len()); return 0; }"
  in
  Alcotest.(check string) "inputs" "11\n22\n0\n2\n" out

let test_run_function_args () =
  let bin =
    compile
      "int add3(int a, int b, int c) { return a + b + c; } int main() { return 0; }"
  in
  let fid =
    let found = ref (-1) in
    Array.iteri
      (fun i (n, _, _) -> if n = "add3" then found := i)
      bin.Isa.Binary.functions;
    !found
  in
  let r = Vm.Machine.run_function bin ~fid ~args:[ 1; 2; 3 ] ~input:[||] in
  Alcotest.(check int) "direct call" 6 r.return_value

(* [args] bind in call order: a non-commutative callee returns what the
   same call compiled from source returns, for both profiles and every
   arch, unoptimized and optimized. *)
let test_run_function_arg_order () =
  let src =
    "int sub(int a, int b) { return a - b; } int main() { return sub(10, 3); }"
  in
  List.iter
    (fun (profile, arch, preset) ->
      let bin =
        Toolchain.Pipeline.compile_preset profile ~arch preset
          (Minic.Sema.analyze src)
      in
      let label =
        Printf.sprintf "%s %s %s" profile.Toolchain.Flags.profile_name
          (Isa.Insn.arch_name arch) preset
      in
      let fid =
        let found = ref (-1) in
        Array.iteri
          (fun i (n, _, _) -> if n = "sub" then found := i)
          bin.Isa.Binary.functions;
        !found
      in
      Alcotest.(check int) (label ^ ": main's sub(10, 3)") 7
        (Vm.Machine.run bin ~input:[||]).return_value;
      Alcotest.(check int) (label ^ ": run_function ~args:[10; 3]") 7
        (Vm.Machine.run_function bin ~fid ~args:[ 10; 3 ] ~input:[||])
          .return_value)
    (List.concat_map
       (fun profile ->
         List.concat_map
           (fun arch -> List.map (fun p -> (profile, arch, p)) [ "O0"; "O2" ])
           [ Isa.Insn.X86_64; Isa.Insn.Arm ])
       [ Toolchain.Flags.gcc; Toolchain.Flags.llvm ])

let test_interp_vm_agree_on_corner_programs () =
  List.iter
    (fun src ->
      let prog = Minic.Sema.analyze src in
      let ir = Vir.Lower.lower_program prog in
      let ri = Vir.Interp.run ir ~input:[| 3 |] in
      let bin = Toolchain.Pipeline.compile_preset Toolchain.Flags.llvm "O3" prog in
      let rv = Vm.Machine.run bin ~input:[| 3 |] in
      Alcotest.(check string) "output parity"
        (Vir.Interp.output_to_string ri.output)
        (Vir.Interp.output_to_string rv.Vm.Machine.output);
      Alcotest.(check int) "exit parity" ri.return_value rv.Vm.Machine.return_value)
    [
      (* empty main *)
      "int main() { return 42; }";
      (* negative modulo chains *)
      "int main() { int s = 0; for (int i = -8; i < 8; i++) { s += i % 3 + i / 3; } print_int(s); return s & 7; }";
      (* switch on negative values falls to default *)
      "int main() { switch (0 - 5) { case 1: return 1; default: print_int(-1); } return 0; }";
      (* deeply nested conditionals *)
      "int main() { int x = input(0); if (x > 0) { if (x > 1) { if (x > 2) { print_int(3); } else { print_int(2); } } else { print_int(1); } } else { print_int(0); } return 0; }";
      (* shadowing in nested blocks *)
      "int main() { int x = 1; { int x = 2; print_int(x); } print_int(x); return 0; }";
      (* ternary chains with side-effect-free arms *)
      "int main() { int a = input(0); print_int(a > 2 ? a > 5 ? 9 : 7 : a); return 0; }";
      (* large constants survive encode/decode *)
      "int main() { int big = 123456789123456; print_int(big); print_int(big * 2 / 2); return 0; }";
    ]

let test_steps_counts_instructions () =
  let bin = compile "int main() { return 7; }" in
  let r = Vm.Machine.run bin ~input:[||] in
  Alcotest.(check bool) "small step count" true (r.steps > 0 && r.steps < 64)

let test_work_counters () =
  let bin = compile "int main() { print_int(3); return 7; }" in
  let t = Telemetry.create () in
  Telemetry.set_global t;
  let r =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_global Telemetry.null)
      (fun () ->
        ignore (Vm.Machine.run bin ~input:[||]);
        Vm.Machine.run bin ~input:[||])
  in
  Alcotest.(check int) "vm.runs" 2 (Telemetry.counter_value t "vm.runs");
  Alcotest.(check int) "vm.steps" (2 * r.steps)
    (Telemetry.counter_value t "vm.steps")

(* A binary assembled by hand, for states no compiler emits. *)
let hand_binary insns =
  let arch = Isa.Insn.X86_64 in
  let text =
    List.fold_left
      (fun text i -> text ^ Isa.Codec.encode ~at:(String.length text) arch i)
      "" insns
  in
  {
    Isa.Binary.arch;
    profile = "hand";
    opt_label = "hand";
    text;
    data = "";
    data_words = [||];
    symbols = [||];
    functions = [| ("main", 0, String.length text) |];
    entry = 0;
    ret_reg = 0;
  }

let expect_trap msg insns =
  match Vm.Machine.run (hand_binary insns) ~input:[||] with
  | exception Vm.Machine.Trap m -> Alcotest.(check string) "trap message" msg m
  | _ -> Alcotest.fail "expected a trap"

let test_pop_below_stack_traps () =
  expect_trap "stack access at -3"
    Isa.Insn.[ Imov (sp, Oimm (-3)); Ipop 0; Iret ]

let test_push_above_stack_traps () =
  expect_trap
    (Printf.sprintf "stack access at %d" ((1 lsl 21) - 1))
    Isa.Insn.[ Imov (sp, Oimm (1 lsl 21)); Ipush (Oimm 1); Iret ]

(* Words far below anything pushed: an untouched one reads 0, a written
   one reads back, and one between them, never written, still reads 0. *)
let test_far_stack_words () =
  let r =
    Vm.Machine.run
      (hand_binary
         Isa.Insn.
           [
             Ildf (0, SP_rel, -100_000, Oimm 0);
             Istf (SP_rel, -200_000, Oimm 0, Oimm 7);
             Ildf (1, SP_rel, -200_000, Oimm 0);
             Ildf (2, SP_rel, -150_000, Oimm 0);
             Ialu (Amul, 1, 1, Oimm 10);
             Ialu (Aadd, 0, 0, Oreg 1);
             Ialu (Aadd, 0, 0, Oreg 2);
             Iret;
           ])
      ~input:[||]
  in
  Alcotest.(check int) "far reads" 70 r.return_value

(* The stack limit is exact, however the held segment grows: a run that
   fits in [stack_words] words gives the same output, return value and
   step count at every larger limit, and traps at every smaller one.
   Limits are drawn around the segment's doubling points, and the
   recursion depth is random so the deepest access lands anywhere
   between them. *)
let down_bin =
  lazy
    (compile
       "int down(int n, int k) { int buf[4]; buf[n & 3] = n + k; if (n <= 0) { return k; } return down(n - 1, k) + (buf[n & 3] & 1); } int main() { return down(input(0), input(1)); }")

let outcome f =
  match f () with
  | (r : Vm.Machine.result) ->
    Some (Vir.Interp.output_to_string r.output, r.return_value, r.steps)
  | exception Vm.Machine.Trap _ -> None

(* the least limit at which [f] completes, given that it traps at 0 and
   completes at 1 Mi words *)
let least_limit f =
  let rec go lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if outcome (f mid) = None then go mid hi else go lo mid
  in
  go 0 (1 lsl 20)

let check_limits f =
  let reference = outcome (f (1 lsl 20)) in
  if reference = None then Alcotest.fail "run traps at the default limit";
  let need = least_limit f in
  let doublings =
    List.concat_map
      (fun k ->
        let p = 4096 lsl k in
        [ p - 1; p; p + 1 ])
      [ 0; 1; 2; 3; 4 ]
  in
  List.iter
    (fun words ->
      let expected = if words >= need then reference else None in
      if outcome (f words) <> expected then
        QCheck.Test.fail_reportf "limit %d (least %d) disagrees" words need)
    ([ 0; 1; 2; 3; need - 1; need; need + 1; 1 lsl 20 ] @ doublings)

let prop_stack_limit =
  QCheck.Test.make ~name:"stack limit is exact at every segment size"
    ~count:10
    QCheck.(pair (int_range 0 4000) small_nat)
    (fun (n, k) ->
      let bin = Lazy.force down_bin in
      check_limits (fun words () ->
          Vm.Machine.run ~stack_words:words bin ~input:[| n; k |]);
      let fid =
        let found = ref (-1) in
        Array.iteri
          (fun i (name, _, _) -> if name = "down" then found := i)
          bin.Isa.Binary.functions;
        !found
      in
      (* both arguments are [n], so the depth does not hang on which
         end of the frame holds the first *)
      check_limits (fun words () ->
          Vm.Machine.run_function ~stack_words:words bin ~fid ~args:[ n; n ]
            ~input:[||]);
      true)

let tests =
  [
    Alcotest.test_case "division" `Quick test_division_semantics;
    Alcotest.test_case "shifts" `Quick test_shift_semantics;
    Alcotest.test_case "deep recursion" `Quick test_deep_recursion;
    Alcotest.test_case "stack overflow" `Quick test_stack_overflow_traps;
    Alcotest.test_case "fuel" `Quick test_fuel_exhaustion;
    Alcotest.test_case "oob traps" `Quick test_oob_data_traps;
    Alcotest.test_case "input conventions" `Quick test_input_conventions;
    Alcotest.test_case "run_function" `Quick test_run_function_args;
    Alcotest.test_case "run_function argument order" `Quick
      test_run_function_arg_order;
    Alcotest.test_case "corner programs" `Quick test_interp_vm_agree_on_corner_programs;
    Alcotest.test_case "step counting" `Quick test_steps_counts_instructions;
    Alcotest.test_case "work counters" `Quick test_work_counters;
    Alcotest.test_case "pop below stack traps" `Quick test_pop_below_stack_traps;
    Alcotest.test_case "push above stack traps" `Quick test_push_above_stack_traps;
    Alcotest.test_case "far stack words" `Quick test_far_stack_words;
    QCheck_alcotest.to_alcotest prop_stack_limit;
  ]
