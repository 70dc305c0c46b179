(** The prominent binary diffing tools of the paper's §5.3 comparative
    evaluation, re-implemented over the VX binary representation.  Each
    tool exposes the same interface: given two analyzed binaries, a
    similarity score for any function pair.  The {!Precision} module
    turns these into Precision@1, the metric Figure 8 reports.

    The seven tools cover the representation classes of §3:
    - Asm2Vec: lexical-semantics function embeddings from CFG random
      walks (token co-occurrence vectors, cosine similarity);
    - INNEREYE: basic-block embeddings aligned greedily across functions;
    - VulSeeker: per-function CFG + DFG numeric feature vectors;
    - BinDiff: the industry heuristic — 3-level statistical features
      with exact-signature then nearest-feature matching;
    - BinSlayer: BinDiff's features with Hungarian bipartite matching of
      basic blocks;
    - CoP: longest common subsequence of semantically equivalent blocks
      along a canonical path linearization;
    - Multi-MH: basic-block input/output sampling signatures;
    - IMF-SIM: in-memory fuzzing of whole functions in the VX VM. *)

type tool = {
  tool_name : string;
  similarity : Bcode.t -> Bcode.t -> int -> int -> float;
      (** [similarity a b i j] scores function [i] of [a] against
          function [j] of [b]; higher is more similar.  Staged: applied
          to [a] and [b] alone, it extracts both binaries' per-function
          features once and returns the pairwise scorer, so rank a
          binary's candidates through one [similarity a b].  Nothing is
          cached across calls. *)
}

val asm2vec : tool

val innereye : tool

val vulseeker : tool

val bindiff : tool

val binslayer : tool

val cop : tool

val multimh : tool

val imfsim : tool

val all : tool list
(** The seven comparison tools of Figure 8 (BinDiff is used by
    BinSlayer and reported separately in some experiments). *)
