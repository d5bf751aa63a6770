(** Online and batch statistics.

    {!Welford} accumulates mean/variance in a single pass with good numerical
    behaviour; the batch helpers operate on float arrays. These are used by
    the calibration phase (service-time estimates), the monitors, and the
    experiment harness (mean ± confidence interval over seeds). *)

module Welford : sig
  type t
  (** Mutable single-pass accumulator. *)

  val create : unit -> t
  val add : t -> float -> unit
  val merge : t -> t -> t
  (** [merge a b] is a fresh accumulator equivalent to having seen both
      streams (Chan et al. parallel combination). *)

  val count : t -> int
  val mean : t -> float
  (** [mean t] is [nan] when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; [nan] when fewer than two observations. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

val mean : float array -> float
val variance : float array -> float
val stddev : float array -> float

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [\[0,1\]], linear interpolation between order
    statistics (type-7). Raises [Invalid_argument] on empty input or [q]
    outside [\[0,1\]]. Does not modify [xs]. *)

val sort_floats : float array -> unit
(** [sort_floats a] sorts [a] in place exactly as [Array.sort Float.compare]
    does — the same heap sort, step for step, so even elements that compare
    equal but differ in bits ([0.] and [-0.], NaNs) land in the same places
    — without allocating. *)

val quantile_sorted : float array -> float -> float
(** [quantile_sorted sorted q] is {!quantile} on an array already sorted by
    {!sort_floats}, without the copy and the sort. *)

val median : float array -> float

val confidence95 : float array -> float * float
(** [confidence95 xs] is [(mean, half_width)] of a normal-approximation 95%
    confidence interval (half width = 1.96 · s/√n; 0 when n < 2). *)

val mae : float array -> float array -> float
(** Mean absolute error between two equal-length arrays. *)

val rmse : float array -> float array -> float
(** Root mean squared error between two equal-length arrays. *)

module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t
  (** Fixed uniform binning over [\[lo, hi)]; out-of-range samples are counted
      in saturating edge bins. *)

  val add : t -> float -> unit
  val count : t -> int
  val counts : t -> int array
  val bin_mid : t -> int -> float
  val pp : Format.formatter -> t -> unit
  (** Render as a small ASCII bar chart. *)
end
