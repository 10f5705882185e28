package repro.perfbench

/** One named number in the run report, with its base: a timing summary
  * (median, sample count, tail) or a single derived value with its count.
  */
final case class Reported(name: String, unit: String, value: Double, n: Int, tail: Option[(Double, Double)]) {
  def describe: String = {
    val t = tail.map { case (p, v) => f", p${Stats.fmtPct(p)} $v%.6g" }.getOrElse("")
    f"$name%-34s $value%.6g $unit (n=$n$t)"
  }
}

object Reported {
  /** Median of `xs` with the tail percentile rule. */
  def of(name: String, unit: String, xs: Seq[Double]): Reported = {
    val s = Stats.summarize(xs)
    Reported(name, unit, s.median, s.n, s.tail)
  }

  /** A single value derived from `n` samples. */
  def value(name: String, unit: String, v: Double, n: Int): Reported = Reported(name, unit, v, n, None)
}
