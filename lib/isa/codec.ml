open Insn

(* Instruction kind numbering (stable — the on-disk format). *)
let kind_of = function
  | Imov _ -> 0
  | Ialu _ -> 1
  | Ineg _ -> 2
  | Inot _ -> 3
  | Icmp _ -> 4
  | Itest _ -> 5
  | Isetcc _ -> 6
  | Icmov _ -> 7
  | Ijmp _ -> 8
  | Ijcc _ -> 9
  | Ijtab _ -> 10
  | Iloop _ -> 11
  | Ild _ -> 12
  | Ist _ -> 13
  | Ildf _ -> 14
  | Istf _ -> 15
  | Ipush _ -> 16
  | Ipop _ -> 17
  | Icall _ -> 18
  | Icallr _ -> 19
  | Ila _ -> 20
  | Iret -> 21
  | Ivld _ -> 22
  | Ivst _ -> 23
  | Ivalu _ -> 24
  | Ivsplat _ -> 25
  | Ivpack _ -> 26
  | Ivred _ -> 27
  | Ivldf _ -> 28
  | Ivstf _ -> 29
  | Iprint _ -> 30
  | Iprintc _ -> 31
  | Iread _ -> 32
  | Ilen _ -> 33
  | Inop -> 34
  | Iinc _ -> 35
  | Idec _ -> 36
  | Ixorz _ -> 37
  | Ijmpf _ -> 38

let nkinds = 39

let salt = function X86_32 -> 0x00 | X86_64 -> 0x40 | Arm -> 0x80 | Mips -> 0xC0

(* opcode = (kind * 5 + salt) mod 256; 5⁻¹ mod 256 = 205 *)
let opcode arch kind = (kind * 5 + salt arch) land 0xFF

let kind_of_opcode arch b =
  let k = (b - salt arch) * 205 land 0xFF in
  if k < nkinds then k else invalid_arg "Codec: bad opcode"

(* Per-arch register byte scrambling (a cosmetic encoding difference that
   makes the four architectures produce different bytes for the same
   instruction stream). *)
let enc_reg arch r =
  match arch with
  | X86_32 | X86_64 -> r
  | Arm -> (r * 2) + 1
  | Mips -> r lxor 0x55

let dec_reg arch b =
  match arch with
  | X86_32 | X86_64 -> b
  | Arm ->
    if b land 1 = 0 then invalid_arg "Codec: bad arm register byte";
    (b - 1) / 2
  | Mips -> b lxor 0x55

let alu_code = function
  | Aadd -> 0
  | Asub -> 1
  | Amul -> 2
  | Adiv -> 3
  | Amod -> 4
  | Aand -> 5
  | Aor -> 6
  | Axor -> 7
  | Ashl -> 8
  | Ashr -> 9

let alu_of_code = function
  | 0 -> Aadd
  | 1 -> Asub
  | 2 -> Amul
  | 3 -> Adiv
  | 4 -> Amod
  | 5 -> Aand
  | 6 -> Aor
  | 7 -> Axor
  | 8 -> Ashl
  | 9 -> Ashr
  | _ -> invalid_arg "Codec: bad alu code"

let cond_code = function
  | Ceq -> 0
  | Cne -> 1
  | Clt -> 2
  | Cle -> 3
  | Cgt -> 4
  | Cge -> 5

let cond_of_code = function
  | 0 -> Ceq
  | 1 -> Cne
  | 2 -> Clt
  | 3 -> Cle
  | 4 -> Cgt
  | 5 -> Cge
  | _ -> invalid_arg "Codec: bad cond code"

let fbase_code = function FP_rel -> 0 | SP_rel -> 1

let fbase_of_code = function
  | 0 -> FP_rel
  | 1 -> SP_rel
  | _ -> invalid_arg "Codec: bad frame base"

(* ------------------------------------------------------------------ *)
(* Field writers / readers                                             *)
(* ------------------------------------------------------------------ *)

type writer = { buf : Buffer.t; arch : arch; at : int }

let w_u8 w v = Buffer.add_char w.buf (Char.chr (v land 0xFF))

let w_reg w r = w_u8 w (enc_reg w.arch r)

let w_u16 w v =
  w_u8 w v;
  w_u8 w (v lsr 8)

let w_i32 w v =
  for i = 0 to 3 do
    w_u8 w (v asr (8 * i))
  done

let w_i64 w v =
  for i = 0 to 7 do
    w_u8 w (v asr (8 * i))
  done

let fits_i8 v = v >= -128 && v <= 127

let fits_i32 v = v >= -0x8000_0000 && v <= 0x7FFF_FFFF

(* operand: mode byte 0=reg, 1=imm8 (x86-64 only), 2=imm32, 3=imm64 *)
let w_operand w = function
  | Oreg r ->
    w_u8 w 0;
    w_reg w r
  | Oimm v ->
    if w.arch = X86_64 && fits_i8 v then begin
      w_u8 w 1;
      w_u8 w (v land 0xFF)
    end
    else if fits_i32 v then begin
      w_u8 w 2;
      w_i32 w v
    end
    else begin
      w_u8 w 3;
      w_i64 w v
    end

(* Branch targets are PC-relative (to the instruction start) and encoded
   in 4 fixed bytes so the assembler can backpatch them.  PC-relative
   encoding matters beyond realism: identical code sequences placed at
   different addresses produce identical bytes, which is what lets the
   NCD fitness see shared structure between two compiles. *)
let w_target w v = w_i32 w (v - w.at)

type reader = { src : string; mutable pos : int; rarch : arch }

let r_u8 r =
  if r.pos >= String.length r.src then invalid_arg "Codec: truncated";
  let b = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  b

let r_reg r = dec_reg r.rarch (r_u8 r)

let r_u16 r =
  let a = r_u8 r in
  let b = r_u8 r in
  a lor (b lsl 8)

let r_i32 r =
  let v = ref 0 in
  for i = 0 to 3 do
    v := !v lor (r_u8 r lsl (8 * i))
  done;
  (* sign-extend from 32 bits *)
  (!v lsl 31) asr 31

let r_i64 r =
  let v = ref 0 in
  for i = 0 to 7 do
    v := !v lor (r_u8 r lsl (8 * i))
  done;
  !v

let r_operand r =
  match r_u8 r with
  | 0 -> Oreg (r_reg r)
  | 1 ->
    let b = r_u8 r in
    Oimm ((b lsl 55) asr 55)
  | 2 -> Oimm (r_i32 r)
  | 3 -> Oimm (r_i64 r)
  | _ -> invalid_arg "Codec: bad operand mode"

let r_target ~at r =
  let v = ref 0 in
  for i = 0 to 3 do
    v := !v lor (r_u8 r lsl (8 * i))
  done;
  (* sign-extend and rebase *)
  at + ((!v lsl 31) asr 31)

(* ------------------------------------------------------------------ *)
(* Instruction bodies                                                  *)
(* ------------------------------------------------------------------ *)

let write_body w i =
  match i with
  | Imov (d, s) ->
    w_reg w d;
    w_operand w s
  | Ialu (a, d, x, y) ->
    w_u8 w (alu_code a);
    w_reg w d;
    w_reg w x;
    w_operand w y
  | Ineg (d, x) | Inot (d, x) ->
    w_reg w d;
    w_reg w x
  | Icmp (a, b) ->
    w_reg w a;
    w_operand w b
  | Itest (a, b) ->
    w_reg w a;
    w_reg w b
  | Isetcc (c, d) ->
    w_u8 w (cond_code c);
    w_reg w d
  | Icmov (c, d, s) ->
    w_u8 w (cond_code c);
    w_reg w d;
    w_operand w s
  | Ijmp t -> w_target w t
  | Ijcc (c, t) ->
    w_u8 w (cond_code c);
    w_target w t
  | Ijtab (r, ts) ->
    w_reg w r;
    w_u16 w (List.length ts);
    List.iter (w_target w) ts
  | Iloop (r, t) ->
    w_reg w r;
    w_target w t
  | Ild (d, s, i) ->
    w_reg w d;
    w_u16 w s;
    w_operand w i
  | Ist (s, i, v) ->
    w_u16 w s;
    w_operand w i;
    w_operand w v
  | Ildf (d, b, o, i) ->
    w_reg w d;
    w_u8 w (fbase_code b);
    w_i32 w o;
    w_operand w i
  | Istf (b, o, i, v) ->
    w_u8 w (fbase_code b);
    w_i32 w o;
    w_operand w i;
    w_operand w v
  | Ipush s -> w_operand w s
  | Ipop d -> w_reg w d
  | Icall fid -> w_u16 w fid
  | Icallr r -> w_reg w r
  | Ila (d, fid) ->
    w_reg w d;
    w_u16 w fid
  | Iret -> ()
  | Ivld (d, s, i) ->
    w_u8 w d;
    w_u16 w s;
    w_operand w i
  | Ivst (s, i, v) ->
    w_u16 w s;
    w_operand w i;
    w_u8 w v
  | Ivalu (a, d, x, y) ->
    w_u8 w (alu_code a);
    w_u8 w d;
    w_u8 w x;
    w_u8 w y
  | Ivsplat (d, s) ->
    w_u8 w d;
    w_operand w s
  | Ivpack (d, a, b, c, e) ->
    w_u8 w d;
    w_operand w a;
    w_operand w b;
    w_operand w c;
    w_operand w e
  | Ivred (a, d, v) ->
    w_u8 w (alu_code a);
    w_reg w d;
    w_u8 w v
  | Ivldf (d, b, o, i) ->
    w_u8 w d;
    w_u8 w (fbase_code b);
    w_i32 w o;
    w_operand w i
  | Ivstf (b, o, i, v) ->
    w_u8 w (fbase_code b);
    w_i32 w o;
    w_operand w i;
    w_u8 w v
  | Iprint s | Iprintc s -> w_operand w s
  | Iread (d, i) ->
    w_reg w d;
    w_operand w i
  | Ilen d -> w_reg w d
  | Inop -> ()
  | Iinc r | Idec r | Ixorz r -> w_reg w r
  | Ijmpf fid -> w_u16 w fid

let read_body ~at r kind =
  let r_target r = r_target ~at r in
  match kind with
  | 0 ->
    let d = r_reg r in
    Imov (d, r_operand r)
  | 1 ->
    let a = alu_of_code (r_u8 r) in
    let d = r_reg r in
    let x = r_reg r in
    Ialu (a, d, x, r_operand r)
  | 2 ->
    let d = r_reg r in
    Ineg (d, r_reg r)
  | 3 ->
    let d = r_reg r in
    Inot (d, r_reg r)
  | 4 ->
    let a = r_reg r in
    Icmp (a, r_operand r)
  | 5 ->
    let a = r_reg r in
    Itest (a, r_reg r)
  | 6 ->
    let c = cond_of_code (r_u8 r) in
    Isetcc (c, r_reg r)
  | 7 ->
    let c = cond_of_code (r_u8 r) in
    let d = r_reg r in
    Icmov (c, d, r_operand r)
  | 8 -> Ijmp (r_target r)
  | 9 ->
    let c = cond_of_code (r_u8 r) in
    Ijcc (c, r_target r)
  | 10 ->
    let reg = r_reg r in
    let n = r_u16 r in
    Ijtab (reg, List.init n (fun _ -> r_target r))
  | 11 ->
    let reg = r_reg r in
    Iloop (reg, r_target r)
  | 12 ->
    let d = r_reg r in
    let s = r_u16 r in
    Ild (d, s, r_operand r)
  | 13 ->
    let s = r_u16 r in
    let i = r_operand r in
    Ist (s, i, r_operand r)
  | 14 ->
    let d = r_reg r in
    let b = fbase_of_code (r_u8 r) in
    let o = r_i32 r in
    Ildf (d, b, o, r_operand r)
  | 15 ->
    let b = fbase_of_code (r_u8 r) in
    let o = r_i32 r in
    let i = r_operand r in
    Istf (b, o, i, r_operand r)
  | 16 -> Ipush (r_operand r)
  | 17 -> Ipop (r_reg r)
  | 18 -> Icall (r_u16 r)
  | 19 -> Icallr (r_reg r)
  | 20 ->
    let d = r_reg r in
    Ila (d, r_u16 r)
  | 21 -> Iret
  | 22 ->
    let d = r_u8 r in
    let s = r_u16 r in
    Ivld (d, s, r_operand r)
  | 23 ->
    let s = r_u16 r in
    let i = r_operand r in
    Ivst (s, i, r_u8 r)
  | 24 ->
    let a = alu_of_code (r_u8 r) in
    let d = r_u8 r in
    let x = r_u8 r in
    Ivalu (a, d, x, r_u8 r)
  | 25 ->
    let d = r_u8 r in
    Ivsplat (d, r_operand r)
  | 26 ->
    let d = r_u8 r in
    let a = r_operand r in
    let b = r_operand r in
    let c = r_operand r in
    Ivpack (d, a, b, c, r_operand r)
  | 27 ->
    let a = alu_of_code (r_u8 r) in
    let d = r_reg r in
    Ivred (a, d, r_u8 r)
  | 28 ->
    let d = r_u8 r in
    let b = fbase_of_code (r_u8 r) in
    let o = r_i32 r in
    Ivldf (d, b, o, r_operand r)
  | 29 ->
    let b = fbase_of_code (r_u8 r) in
    let o = r_i32 r in
    let i = r_operand r in
    Ivstf (b, o, i, r_u8 r)
  | 30 -> Iprint (r_operand r)
  | 31 -> Iprintc (r_operand r)
  | 32 ->
    let d = r_reg r in
    Iread (d, r_operand r)
  | 33 -> Ilen (r_reg r)
  | 34 -> Inop
  | 35 -> Iinc (r_reg r)
  | 36 -> Idec (r_reg r)
  | 37 -> Ixorz (r_reg r)
  | 38 -> Ijmpf (r_u16 r)
  | _ -> invalid_arg "Codec: bad kind"

(* ------------------------------------------------------------------ *)
(* Arch wrappers: arm/mips pad every instruction to a 4-byte multiple   *)
(* ------------------------------------------------------------------ *)

let word_aligned = function Arm | Mips -> true | X86_32 | X86_64 -> false

let pad_byte = 0xEE

let encode ?(at = 0) arch i =
  let w = { buf = Buffer.create 16; arch; at } in
  w_u8 w (opcode arch (kind_of i));
  write_body w i;
  if word_aligned arch then begin
    while Buffer.length w.buf mod 4 <> 0 do
      w_u8 w pad_byte
    done
  end;
  Buffer.contents w.buf

let encoded_length arch i = String.length (encode arch i)

let decode arch text ~pos =
  let r = { src = text; pos; rarch = arch } in
  let kind = kind_of_opcode arch (r_u8 r) in
  let i = read_body ~at:pos r kind in
  if word_aligned arch then begin
    while
      r.pos mod 4 <> 0
      && r.pos < String.length text
      && Char.code text.[r.pos] = pad_byte
    do
      r.pos <- r.pos + 1
    done;
    if r.pos mod 4 <> 0 then invalid_arg "Codec: bad padding"
  end;
  (i, r.pos)

let sweep arch text ~pos ~stop f =
  let rec go pos n =
    if pos >= stop then n
    else begin
      let i, next = decode arch text ~pos in
      f pos i next;
      go next (n + 1)
    end
  in
  Telemetry.add_count ~by:(go pos 0) "isa.sweep.insns"
