package repro.experiments

/** Adaptive micro-benchmark timing for the table harnesses.
  *
  * The paper times 1,000 simulations per cell; its slow baselines take
  * hundreds of times longer than the fast engine. Because the ratio, not the
  * absolute time, is the reported quantity (Table 1 is normalized per row),
  * we measure *per-trial* time with an adaptive trial count: run doubling
  * batches until at least `minTimeMs` of wall clock or `maxTrials` trials,
  * after three unmeasured trials (JIT). Deterministic work per trial is
  * preserved by passing the true trial index to the runner.
  */
object Timing {

  /** Measured cell: per-trial milliseconds and how many trials that used. */
  final case class PerTrial(ms: Double, trials: Int)

  private val Warmup = 3

  /** Time `runTrial` adaptively; `runTrial(t)` must execute trial index t. */
  def perTrialMs(runTrial: Long => Unit, maxTrials: Int, minTimeMs: Long): PerTrial = {
    require(maxTrials > 0, "maxTrials must be positive")
    var t = 0L
    while (t < Warmup) { runTrial(t); t += 1 }
    var measured = 0
    var elapsedNanos = 0L
    var batch = 1
    // Nanosecond accounting: a fast engine's whole batch can be far under a
    // millisecond. Always measure at least one batch, even with minTimeMs=0.
    while (measured == 0 || (measured < maxTrials && elapsedNanos < minTimeMs * 1000000L)) {
      val thisBatch = math.min(batch, maxTrials - measured)
      val start = System.nanoTime()
      var j = 0
      while (j < thisBatch) { runTrial(t); t += 1; j += 1 }
      elapsedNanos += System.nanoTime() - start
      measured += thisBatch
      batch *= 2
    }
    PerTrial(elapsedNanos / 1e6 / measured, measured)
  }
}
