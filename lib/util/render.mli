(** ASCII rendering of the paper's tables and figures.

    The benchmark harness regenerates every table and figure of the paper's
    evaluation section as text: tables as aligned grids, figures as
    horizontal bar charts or sparkline-style series. *)

val table : header:string list -> rows:string list list -> string
(** Render an aligned table with a header rule.  All rows are padded to the
    header width. *)

val bar_chart : title:string -> (string * float) list -> string
(** Horizontal bar chart; bars scaled to the maximum value, at most 50
    characters wide. *)

val grouped_bars :
  title:string -> series:string list -> (string * float list) list -> string
(** Grouped horizontal bars: each row is a labelled group with one bar per
    series (used for Figure 5 / Figure 8 style charts). *)

val series_plot : title:string -> (string * float array) list -> string
(** Plot one or more numeric series on a shared character grid (used for
    the Figure 6 NCD-over-iterations plots and Figure 10 CDF). *)

val section : string -> string
(** A visually separated section header. *)
