(* Verified recursive-descent disassembly.

   [recover] re-disassembles every function by following control flow
   from its entry — branches, fallthroughs, calls (which return) and
   [Ijtab] jump-table targets — and cross-checks the result against the
   linear sweep ([Isa.Binary.analyze]) and, when supplied, against the
   compiler's ground-truth instruction boundaries (threaded out of
   codegen via [Pipeline.compile_preset ~boundaries]).

   On this ISA the two disassemblies must agree instruction for
   instruction on everything the descent reaches, and the linear sweep
   must agree with ground truth on every boundary: any [mismatch] is a
   real defect in the codec, the assembler or the CFG recovery, and the
   ci.sh inspect gate keeps the corpus at zero.  Bytes ground truth
   knows about but the descent never reaches (alignment nops after
   unconditional control transfers, jump-table shadows) are *not*
   mismatches; they are reported as [d_unreachable] statistics, the
   verified-disassembly analogue of dead bytes. *)

open Isa.Insn

type insn_at = { i_addr : int; i_insn : insn; i_next : int }

type bblock = {
  rb_addr : int;
  rb_insns : insn_at list;
  rb_succs : int list;  (** successor leader addresses, ascending *)
}

type mismatch = {
  m_func : string;
  m_addr : int;
  m_kind : string;
      (** ["decode-error"], ["overrun"], ["not-in-linear"],
          ["insn-differs"] or ["ground-truth"] *)
  m_detail : string;
}

type func_disasm = {
  d_name : string;
  d_addr : int;
  d_len : int;
  d_insns : insn_at list;  (** reachable instructions, ascending *)
  d_blocks : bblock list;  (** ascending by leader address *)
  d_calls : int list;  (** callee function ids (from the linear sweep) *)
  d_unreachable : int;  (** bytes never reached by the descent *)
  d_mismatches : mismatch list;
}

type t = {
  funcs : func_disasm list;
  total_insns : int;
  total_unreachable : int;
  mismatches : mismatch list;
}

let recover_function (bin : Isa.Binary.t) ~ground_truth
    (bf : Isa.Binary.bfunc) : func_disasm =
  let name = bf.f_name in
  let _, addr, len = bin.functions.(bf.f_id) in
  let stop = addr + len in
  let mismatches = ref [] in
  let bad kind m_addr fmt =
    Printf.ksprintf
      (fun m_detail ->
        mismatches := { m_func = name; m_addr; m_kind = kind; m_detail } :: !mismatches)
      fmt
  in
  (* --- recursive descent --- *)
  let visited : (int, insn_at) Hashtbl.t = Hashtbl.create 64 in
  let work = Queue.create () in
  Queue.add addr work;
  while not (Queue.is_empty work) do
    let a = Queue.take work in
    if a >= addr && a < stop && not (Hashtbl.mem visited a) then begin
      match Isa.Codec.decode bin.arch bin.text ~pos:a with
      | exception Invalid_argument msg -> bad "decode-error" a "%s" msg
      | i, next ->
        if next > stop then
          bad "overrun" a "instruction runs past function end (%d > %d)" next
            stop
        else begin
          Hashtbl.replace visited a { i_addr = a; i_insn = i; i_next = next };
          let targets, falls = Isa.Binary.flow i ~next in
          List.iter
            (fun t -> if t >= addr && t < stop then Queue.add t work)
            targets;
          if falls && next < stop then Queue.add next work
        end
    end
  done;
  let insns =
    Hashtbl.fold (fun _ ia acc -> ia :: acc) visited []
    |> List.sort (fun a b -> compare a.i_addr b.i_addr)
  in
  (* --- cross-check against the linear sweep --- *)
  let linear = Hashtbl.create 64 in
  List.iter (fun (a, i) -> Hashtbl.replace linear a i) bf.f_insns;
  List.iter
    (fun ia ->
      match Hashtbl.find_opt linear ia.i_addr with
      | None ->
        bad "not-in-linear" ia.i_addr
          "descent reached offset %d inside a linear-sweep instruction"
          ia.i_addr
      | Some li ->
        if li <> ia.i_insn then
          bad "insn-differs" ia.i_addr
            "descent and linear sweep decode different instructions")
    insns;
  (* --- cross-check linear sweep against compiler ground truth --- *)
  (match ground_truth with
  | None -> ()
  | Some gt -> (
    match Hashtbl.find_opt gt name with
    | None -> bad "ground-truth" addr "no ground-truth boundaries for function"
    | Some offs ->
      let swept = List.map fst bf.f_insns in
      if offs <> swept then begin
        let s_gt = List.filter (fun o -> not (List.mem o swept)) offs in
        let s_ls = List.filter (fun o -> not (List.mem o offs)) swept in
        List.iter
          (fun o -> bad "ground-truth" o "true boundary missed by linear sweep")
          s_gt;
        List.iter
          (fun o -> bad "ground-truth" o "linear-sweep boundary is not a true one")
          s_ls;
        if s_gt = [] && s_ls = [] then
          bad "ground-truth" addr "boundary order differs"
      end));
  (* --- unreachable bytes (statistic, not a mismatch) --- *)
  let unreachable =
    List.fold_left
      (fun acc (a, i) ->
        if Hashtbl.mem visited a then acc
        else acc + Isa.Codec.encoded_length bin.arch i)
      0 bf.f_insns
  in
  (* --- block recovery over the reachable instructions --- *)
  let at { i_addr; i_insn; i_next } = (i_addr, i_insn, i_next) in
  let insn_at (i_addr, i_insn, i_next) = { i_addr; i_insn; i_next } in
  let d_blocks =
    List.map
      (fun (rb_addr, items, rb_succs) ->
        { rb_addr; rb_insns = List.map insn_at items; rb_succs })
      (Isa.Binary.split_blocks ~lo:addr ~stop (List.map at insns))
  in
  {
    d_name = name;
    d_addr = addr;
    d_len = len;
    d_insns = insns;
    d_blocks;
    d_calls = bf.f_calls;
    d_unreachable = unreachable;
    d_mismatches = List.rev !mismatches;
  }

let recover ?ground_truth (bin : Isa.Binary.t) : t =
  Telemetry.with_span
    ~attrs:[ ("arch", arch_name bin.arch) ]
    "binsight.disasm"
    (fun () ->
      let bfuncs = Isa.Binary.analyze bin in
      let funcs = List.map (recover_function bin ~ground_truth) bfuncs in
      let total_insns =
        List.fold_left (fun acc f -> acc + List.length f.d_insns) 0 funcs
      in
      let total_unreachable =
        List.fold_left (fun acc f -> acc + f.d_unreachable) 0 funcs
      in
      let mismatches = List.concat_map (fun f -> f.d_mismatches) funcs in
      Telemetry.add_count ~by:(List.length mismatches) "binsight.mismatches";
      { funcs; total_insns; total_unreachable; mismatches })
