open Isa.Insn

type block = {
  id : int;
  insns : insn list;
  succs : int list;
}

type func = {
  name : string;
  is_library : bool;
  entry_id : int;
  blocks : block array;
  edges : (int * int) list;
  calls : int list;
  code_bytes : string;
}

type t = {
  binary : Isa.Binary.t;
  funcs : func array;
}

let library_names =
  [
    "strlen"; "strcpy"; "strcmp"; "memset"; "memcpy"; "abs_"; "min_"; "max_";
    "__instr_enter"; "__instr_exit";
  ]

let analyze (bin : Isa.Binary.t) =
  Telemetry.with_span
    ~attrs:[ ("arch", Isa.Insn.arch_name bin.Isa.Binary.arch) ]
    "diffing.bcode.analyze"
  @@ fun () ->
  let bfuncs = Isa.Binary.analyze bin in
  let funcs =
    List.map
      (fun (bf : Isa.Binary.bfunc) ->
        let addr_to_id = Hashtbl.create 16 in
        List.iteri
          (fun i (bb : Isa.Binary.bblock) ->
            Hashtbl.replace addr_to_id bb.b_addr i)
          bf.f_blocks;
        let id_of a =
          match Hashtbl.find_opt addr_to_id a with
          | Some i -> i
          | None -> -1
        in
        let blocks =
          Array.of_list
            (List.mapi
               (fun i (bb : Isa.Binary.bblock) ->
                 {
                   id = i;
                   insns = List.map snd bb.b_insns;
                   succs =
                     List.filter (fun s -> s >= 0)
                       (List.map id_of bb.b_succs);
                 })
               bf.f_blocks)
        in
        let edges =
          Array.to_list blocks
          |> List.concat_map (fun b -> List.map (fun s -> (b.id, s)) b.succs)
        in
        {
          name = bf.f_name;
          is_library =
            List.mem bf.f_name library_names
            || (String.length bf.f_name > 7
               && String.sub bf.f_name 0 7 = "__real_"
               && List.mem
                    (String.sub bf.f_name 7 (String.length bf.f_name - 7))
                    library_names);
          entry_id = id_of bf.f_addr;
          blocks;
          edges;
          calls = bf.f_calls;
          code_bytes = Isa.Binary.code_of_function bin bf.f_id;
        })
      bfuncs
  in
  { binary = bin; funcs = Array.of_list funcs }

(* Constants are kept literally up to 16 bits (they survive compilation
   and are what real lexical tools anchor on); larger ones fold to a
   coarse bucket. *)
let tok_imm n =
  if n >= -65536 && n <= 65535 then string_of_int n
  else Printf.sprintf "imm%d" (Hashtbl.hash n land 7)

let tok_operand = function
  | Oreg r -> [ Printf.sprintf "r%d" r ]
  | Oimm n -> [ tok_imm n ]

let tok_reg r = Printf.sprintf "r%d" r

let tok_sym s = Printf.sprintf "sym%d" s

let tok_fn f = Printf.sprintf "f%d" f

let tokens_of_insn i =
  match i with
  | Imov (d, s) -> ("mov" :: tok_reg d :: tok_operand s)
  | Ialu (a, d, x, y) -> (alu_name a :: tok_reg d :: tok_reg x :: tok_operand y)
  | Ineg (d, x) -> [ "neg"; tok_reg d; tok_reg x ]
  | Inot (d, x) -> [ "not"; tok_reg d; tok_reg x ]
  | Icmp (a, b) -> ("cmp" :: tok_reg a :: tok_operand b)
  | Itest (a, b) -> [ "test"; tok_reg a; tok_reg b ]
  | Isetcc (c, d) -> [ "set" ^ cond_name c; tok_reg d ]
  | Icmov (c, d, s) -> (("cmov" ^ cond_name c) :: tok_reg d :: tok_operand s)
  | Ijmp _ -> [ "jmp"; "loc" ]
  | Ijcc (c, _) -> [ "j" ^ cond_name c; "loc" ]
  | Ijtab (r, ts) -> [ "jtab"; tok_reg r; string_of_int (List.length ts) ]
  | Iloop (r, _) -> [ "loop"; tok_reg r; "loc" ]
  | Ild (d, s, i) -> ("ld" :: tok_reg d :: tok_sym s :: tok_operand i)
  | Ist (s, i, v) -> ("st" :: tok_sym s :: (tok_operand i @ tok_operand v))
  | Ildf (d, b, _, i) -> ("ldf" :: tok_reg d :: fbase_name b :: tok_operand i)
  | Istf (b, _, i, v) -> ("stf" :: fbase_name b :: (tok_operand i @ tok_operand v))
  | Ipush s -> ("push" :: tok_operand s)
  | Ipop d -> [ "pop"; tok_reg d ]
  | Icall f -> [ "call"; tok_fn f ]
  | Icallr r -> [ "callr"; tok_reg r ]
  | Ila (d, f) -> [ "la"; tok_reg d; tok_fn f ]
  | Iret -> [ "ret" ]
  | Ijmpf f -> [ "jmpf"; tok_fn f ]
  | Ivld (d, s, i) -> (Printf.sprintf "vld v%d" d :: tok_sym s :: tok_operand i)
  | Ivst (s, i, v) -> ("vst" :: tok_sym s :: (tok_operand i @ [ Printf.sprintf "v%d" v ]))
  | Ivalu (a, d, x, y) ->
    [ "v" ^ alu_name a; Printf.sprintf "v%d" d; Printf.sprintf "v%d" x;
      Printf.sprintf "v%d" y ]
  | Ivsplat (d, s) -> (Printf.sprintf "vsplat v%d" d :: tok_operand s)
  | Ivpack (d, a, b, c, e) ->
    (Printf.sprintf "vpack v%d" d
    :: (tok_operand a @ tok_operand b @ tok_operand c @ tok_operand e))
  | Ivred (a, d, v) ->
    [ "vred_" ^ alu_name a; tok_reg d; Printf.sprintf "v%d" v ]
  | Ivldf (d, b, _, i) ->
    (Printf.sprintf "vldf v%d" d :: fbase_name b :: tok_operand i)
  | Ivstf (b, _, i, v) ->
    ("vstf" :: fbase_name b :: (tok_operand i @ [ Printf.sprintf "v%d" v ]))
  | Iprint s -> ("print" :: tok_operand s)
  | Iprintc s -> ("printc" :: tok_operand s)
  | Iread (d, i) -> ("read" :: tok_reg d :: tok_operand i)
  | Ilen d -> [ "len"; tok_reg d ]
  | Inop -> [ "nop" ]
  | Iinc r -> [ "inc"; tok_reg r ]
  | Idec r -> [ "dec"; tok_reg r ]
  | Ixorz r -> [ "xorz"; tok_reg r ]

let n_opcode_classes = 16

let opcode_class i =
  match i with
  | Ialu ((Aadd | Asub), _, _, _) | Iinc _ | Idec _ | Ineg _ -> 0
  | Ialu ((Amul | Adiv | Amod), _, _, _) -> 1
  | Ialu ((Aand | Aor | Axor), _, _, _) | Inot _ | Ixorz _ -> 2
  | Ialu ((Ashl | Ashr), _, _, _) -> 3
  | Imov _ -> 4
  | Icmp _ | Itest _ -> 5
  | Isetcc _ | Icmov _ -> 6
  | Ijmp _ | Ijcc _ | Iloop _ -> 7
  | Ijtab _ -> 8
  | Ild _ | Ildf _ -> 9
  | Ist _ | Istf _ -> 10
  | Ipush _ | Ipop _ -> 11
  | Icall _ | Icallr _ | Ila _ | Ijmpf _ | Iret -> 12
  | Ivld _ | Ivst _ | Ivalu _ | Ivsplat _ | Ivpack _ | Ivred _ | Ivldf _
  | Ivstf _ ->
    13
  | Iprint _ | Iprintc _ | Iread _ | Ilen _ -> 14
  | Inop -> 15

let code_stream (bin : Isa.Binary.t) =
  let b = Buffer.create (String.length bin.text / 4 + 1) in
  Isa.Codec.sweep bin.arch bin.text ~pos:0 ~stop:(String.length bin.text)
    (fun _ i _ -> Buffer.add_char b (Char.chr (opcode_class i)));
  Buffer.contents b
