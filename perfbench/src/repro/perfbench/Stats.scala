package repro.perfbench

/** Summary statistics for benchmark samples.
  *
  * Percentiles use the nearest-rank definition: the p-th percentile of n
  * sorted samples is the sample at rank ceil(p/100 · n). A tail percentile is
  * only reported when at least ten samples lie beyond it, so a "p99" is never
  * the maximum of a handful of runs.
  */
object Stats {

  /** Percentile ladder considered for the tail, lowest first. */
  val TailLadder: Seq[Double] = Seq(90.0, 99.0, 99.9, 99.99)

  /** Samples that must lie strictly beyond a reported tail percentile. */
  val MinBeyond = 10

  /** Nearest-rank percentile of `xs` (need not be sorted). */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    require(p > 0 && p <= 100, s"percentile out of range: $p")
    xs.sorted.apply(rank(xs.size, p) - 1)
  }

  /** Nearest rank (1-based) of the p-th percentile among n samples. The
    * epsilon keeps p·n/100 from rounding up past an exact integer.
    */
  def rank(n: Int, p: Double): Int = math.max(1, math.ceil(p * n / 100.0 - 1e-9).toInt)

  /** Median (the mean of the two middle samples for an even count). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }

  /** Number of the n samples that lie beyond the nearest-rank p-th percentile. */
  def beyond(n: Int, p: Double): Int = n - rank(n, p)

  /** Highest ladder percentile with at least [[MinBeyond]] samples beyond it,
    * or None when there are too few samples for any of them.
    */
  def tailPercentile(n: Int): Option[Double] =
    TailLadder.filter(p => beyond(n, p) >= MinBeyond).lastOption

  /** A timing summary: median, sample count and the tail percentile rule. */
  final case class Summary(median: Double, n: Int, tail: Option[(Double, Double)])

  def summarize(xs: Seq[Double]): Summary = {
    require(xs.nonEmpty, "summary of no samples")
    Summary(median(xs), xs.size, tailPercentile(xs.size).map(p => (p, percentile(xs, p))))
  }

  def fmtPct(p: Double): String =
    if (p == p.floor) p.toLong.toString else p.toString.replace('.', '_')
}
