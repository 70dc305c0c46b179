(* Code-reuse gadget census over a binary's text section, after Brown et
   al.'s "Not So Fast" methodology: a gadget is a suffix of at most [k]
   straight-line instructions ending in a return or indirect control
   transfer, found by attempting a decode at *every* byte offset (on the
   word-aligned arches unaligned starts simply fail to decode, as on real
   fixed-width ISAs).

   The production scan is a single right-to-left dynamic program: decode
   advances strictly forward, so [steps.(pos)] (instructions from [pos]
   to its terminator, when ≤ k) depends only on offsets greater than
   [pos].  [census_brute] re-decodes the whole chain at every offset —
   O(text·k) — and exists purely as the QCheck reference the property
   tests compare against. *)

open Isa.Insn

type gclass = Gret | Gjump | Gcall

type gadget = {
  g_addr : int;  (** lowest offset the byte sequence occurs at *)
  g_len : int;  (** byte length *)
  g_insns : int;  (** instruction count, ≤ k *)
  g_bytes : string;
  g_class : gclass;
}

type census = {
  c_k : int;
  c_sites : int;  (** offsets at which some gadget starts *)
  c_unique : gadget list;  (** deduplicated by byte content, ascending *)
  c_ret : int;  (** unique gadgets per class *)
  c_jump : int;
  c_call : int;
  c_per_function : (string * int * float) list;
      (** (name, sites within the function, sites per code byte) *)
}

let default_k = 4

let classify_term = function
  | Iret -> Some Gret
  | Ijtab _ -> Some Gjump
  | Icallr _ -> Some Gcall
  | _ -> None

(* Shared collection pass: [gadget_at pos] reports (instruction count,
   class, end offset) of the gadget starting at [pos], if any.  Both
   implementations funnel through this so the property test compares the
   chain computation itself. *)
let collect ~k (bin : Isa.Binary.t) gadget_at =
  let text = bin.text in
  let n = String.length text in
  let site = Array.make (max 1 n) false in
  let sites = ref 0 in
  let uniq = Hashtbl.create 256 in
  let order = ref [] in
  for pos = 0 to n - 1 do
    match gadget_at pos with
    | None -> ()
    | Some (g_insns, g_class, endp) ->
      site.(pos) <- true;
      incr sites;
      let g_bytes = String.sub text pos (endp - pos) in
      if not (Hashtbl.mem uniq g_bytes) then begin
        Hashtbl.replace uniq g_bytes ();
        order :=
          { g_addr = pos; g_len = endp - pos; g_insns; g_bytes; g_class }
          :: !order
      end
  done;
  let c_unique = List.rev !order in
  let count c =
    List.length (List.filter (fun g -> g.g_class = c) c_unique)
  in
  let c_per_function =
    Array.to_list bin.functions
    |> List.map (fun (name, addr, len) ->
           let s = ref 0 in
           for p = addr to min (addr + len) n - 1 do
             if site.(p) then incr s
           done;
           (name, !s, float_of_int !s /. float_of_int (max 1 len)))
  in
  {
    c_k = k;
    c_sites = !sites;
    c_unique;
    c_ret = count Gret;
    c_jump = count Gjump;
    c_call = count Gcall;
    c_per_function;
  }

let census ?(k = default_k) (bin : Isa.Binary.t) =
  Telemetry.with_span
    ~attrs:[ ("arch", arch_name bin.arch) ]
    "binsight.gadgets"
    (fun () ->
      let text = bin.text in
      let n = String.length text in
      (* steps.(pos): instructions from pos to its terminator when ≤ k,
         else 0; tclass/endp valid iff steps > 0.  steps.(n) stays 0 so a
         chain falling off the end never counts. *)
      let steps = Array.make (n + 1) 0 in
      let tclass = Array.make (n + 1) Gret in
      let endp = Array.make (n + 1) 0 in
      for pos = n - 1 downto 0 do
        match Isa.Codec.decode bin.arch text ~pos with
        | exception Invalid_argument _ -> ()
        | i, next -> (
          match classify_term i with
          | Some c ->
            steps.(pos) <- 1;
            tclass.(pos) <- c;
            endp.(pos) <- next
          | None ->
            let _, falls = Isa.Binary.flow i ~next in
            if falls && steps.(next) > 0 && steps.(next) < k then begin
              steps.(pos) <- steps.(next) + 1;
              tclass.(pos) <- tclass.(next);
              endp.(pos) <- endp.(next)
            end)
      done;
      let c =
        collect ~k bin (fun pos ->
            if steps.(pos) > 0 then
              Some (steps.(pos), tclass.(pos), endp.(pos))
            else None)
      in
      Telemetry.add_count ~by:(List.length c.c_unique)
        "binsight.gadgets.unique";
      c)

let census_brute ?(k = default_k) (bin : Isa.Binary.t) =
  let text = bin.text in
  let gadget_at pos =
    let rec go p consumed =
      if consumed >= k then None
      else
        match Isa.Codec.decode bin.arch text ~pos:p with
        | exception Invalid_argument _ -> None
        | i, next -> (
          match classify_term i with
          | Some c -> Some (consumed + 1, c, next)
          | None ->
            let _, falls = Isa.Binary.flow i ~next in
            if falls then go next (consumed + 1) else None)
    in
    go pos 0
  in
  collect ~k bin gadget_at
