(** Descriptive statistics used throughout the evaluation harness. *)

val mean : float list -> float
(** Arithmetic mean; 0.0 on the empty list. *)

val median : float list -> float
(** Median (average of the two middle elements for even lengths); 0.0 on the
    empty list. *)

val min_max_median : float list -> float * float * float
(** [(min, max, median)] triple, as reported in the paper's Table 1. *)

val pearson : float list -> float list -> float
(** Pearson correlation coefficient of two equal-length samples.  Returns
    0.0 when either sample is constant (undefined correlation). *)

val jaccard : ('a -> 'a -> int) -> 'a list -> 'a list -> float
(** [jaccard compare a b] is |A∩B| / |A∪B| treating the lists as sets under
    [compare].  1.0 when both are empty. *)

val cdf : float list -> (float * float) list
(** Empirical cumulative distribution: sorted [(value, fraction ≤ value)]
    pairs, one per distinct value. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0,1\]], linear interpolation.
    Out-of-range [p] (including NaN) is clamped to the nearest bound
    rather than indexing outside the sample. *)
