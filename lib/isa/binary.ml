open Insn

type t = {
  arch : arch;
  profile : string;
  opt_label : string;
  text : string;
  data : string;
  data_words : int array;
  symbols : (string * int * int) array;
  functions : (string * int * int) array;
  entry : int;
  ret_reg : int;
}

type bblock = {
  b_addr : int;
  b_insns : (int * insn) list;
  b_succs : int list;
}

type bfunc = {
  f_name : string;
  f_id : int;
  f_addr : int;
  f_insns : (int * insn) list;
  f_blocks : bblock list;
  f_calls : int list;
}

let serialize_data words =
  let b = Buffer.create (Array.length words * 8) in
  Array.iter
    (fun v ->
      for i = 0 to 7 do
        Buffer.add_char b (Char.chr ((v asr (8 * i)) land 0xFF))
      done)
    words;
  Buffer.contents b

let size t = String.length t.text + String.length t.data

let code_of_function t fid =
  let _, addr, len = t.functions.(fid) in
  String.sub t.text addr len

(* Control transfers out of an instruction, as (targets, falls_through). *)
let flow insn ~next =
  match insn with
  | Ijmp target -> ([ target ], false)
  | Ijcc (_, target) -> ([ target; next ], false)
  | Iloop (r, target) ->
    ignore r;
    ([ target; next ], false)
  | Ijtab (_, targets) -> (targets, false)
  | Iret -> ([], false)
  | Ijmpf _ -> ([], false)
  | Imov _ | Ialu _ | Ineg _ | Inot _ | Icmp _ | Itest _ | Isetcc _
  | Icmov _ | Ild _ | Ist _ | Ildf _ | Istf _ | Ipush _ | Ipop _ | Icall _
  | Icallr _ | Ila _ | Ivld _ | Ivst _ | Ivalu _ | Ivsplat _ | Ivpack _
  | Ivred _ | Ivldf _ | Ivstf _ | Iprint _ | Iprintc _ | Iread _ | Ilen _
  | Inop | Iinc _ | Idec _ | Ixorz _ ->
    ([ next ], true)

let ends_block = function
  | Ijmp _ | Ijcc _ | Iloop _ | Ijtab _ | Iret | Ijmpf _ -> true
  | _ -> false

let split_blocks ~lo ~stop items =
  (* leaders: branch targets and the instructions after block-ending
     transfers.  The walk also starts a block at the first instruction,
     and after each block-ending transfer at whichever instruction comes
     next, across a gap if need be. *)
  let leaders = Hashtbl.create 16 in
  List.iter
    (fun (_, i, next) ->
      if ends_block i then begin
        List.iter
          (fun tgt -> Hashtbl.replace leaders tgt ())
          (fst (flow i ~next));
        Hashtbl.replace leaders next ()
      end)
    items;
  let blocks = ref [] in
  let close cur succs =
    let items = List.rev cur in
    let leader, _, _ = List.hd items in
    blocks := (leader, items, List.sort_uniq compare succs) :: !blocks
  in
  let rec walk l cur =
    match (l, cur) with
    | [], [] -> ()
    | [], _ -> close cur []
    | (a, _, _) :: _, (_, _, prev_next) :: _ when Hashtbl.mem leaders a ->
      (* a fallthrough edge only into the contiguous next instruction *)
      close cur (if prev_next = a then [ a ] else []);
      walk l []
    | ((_, i, next) as item) :: rest, _ ->
      if ends_block i then begin
        let targets = fst (flow i ~next) in
        close (item :: cur)
          (List.filter (fun tgt -> tgt >= lo && tgt < stop) targets);
        walk rest []
      end
      else walk rest (item :: cur)
  in
  walk items [];
  List.rev !blocks

let analyze_function t fid =
  let name, addr, len = t.functions.(fid) in
  let stop = addr + len in
  let swept = ref [] in
  Codec.sweep t.arch t.text ~pos:addr ~stop (fun a i next ->
      swept := (a, i, next) :: !swept);
  let swept = List.rev !swept in
  let pair (a, i, _) = (a, i) in
  let f_blocks =
    List.map
      (fun (b_addr, items, b_succs) ->
        { b_addr; b_insns = List.map pair items; b_succs })
      (split_blocks ~lo:addr ~stop swept)
  in
  let f_calls =
    List.filter_map
      (fun (_, i, _) ->
        match i with
        | Icall fid | Ila (_, fid) | Ijmpf fid -> Some fid
        | _ -> None)
      swept
    |> List.sort_uniq compare
  in
  {
    f_name = name;
    f_id = fid;
    f_addr = addr;
    f_insns = List.map pair swept;
    f_blocks;
    f_calls;
  }

let analyze t =
  Telemetry.with_span
    ~attrs:
      [
        ("arch", Insn.arch_name t.arch);
        ("functions", string_of_int (Array.length t.functions));
      ]
    "isa.binary.analyze"
    (fun () ->
      Telemetry.add_count "isa.binary.analyze";
      List.init (Array.length t.functions) (fun fid -> analyze_function t fid))
