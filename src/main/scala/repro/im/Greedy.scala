package repro.im

/** Result of an influence-maximization run.
  *
  * @param seeds       selected seed nodes, in selection order
  * @param sigmaValues the objective's value (σ̂, or an estimator's `total`)
  *                    at the seed prefix after each selection
  * @param evaluations number of σ̂ evaluations performed
  * @param elapsedMs   wall-clock duration of the run
  * @param round0Evaluations σ̂ evaluations of round 0, the first pass that
  *                    scores every candidate alone; the rest are the later
  *                    (for CELF, lazy) rounds'
  * @param round0Ms    wall-clock duration of round 0, at most `elapsedMs`
  * @param completed   false if a time budget expired before k seeds were
  *                    chosen (the paper's "did not finish" case)
  */
final case class ImResult(
    seeds: Vector[Int],
    sigmaValues: Vector[Double],
    evaluations: Long,
    elapsedMs: Long,
    round0Evaluations: Long,
    round0Ms: Long,
    completed: Boolean,
)

/** Plain greedy hill-climbing for influence maximization (Kempe et al. 2003,
  * via Nemhauser et al. 1978): k rounds, each re-evaluating the marginal gain
  * of *every* remaining candidate. The (1 - 1/e)-approximation baseline CELF
  * optimizes; kept for the CELF == Greedy equivalence tests.
  */
object Greedy {

  /** Select k seeds maximizing σ̂ greedily.
    *
    * @param sigma      objective over seed sets, e.g. an estimator's `total`
    * @param candidates candidate node ids
    * @param k          seed budget
    */
  def run[V](sigma: Seq[Int] => V, candidates: Seq[Int], k: Int)(implicit num: Numeric[V]): ImResult = {
    var remaining = candidates.distinct.toVector
    require(k > 0 && k <= remaining.size, s"need 0 < k <= |candidates|, got k=$k")
    val start = System.nanoTime()
    def elapsedMs: Long = (System.nanoTime() - start) / 1000000L
    var evals = 0L
    var round0Evals = 0L
    var round0Ms = 0L
    var chosen = Vector.empty[Int]
    var sigmas = Vector.empty[Double]
    while (chosen.size < k) {
      var bestNode = -1
      var bestSigma = num.zero
      for (v <- remaining) {
        val s = sigma(chosen :+ v)
        evals += 1
        // Ties broken by first (lowest-index) candidate — CELF matches this.
        if (bestNode < 0 || num.gt(s, bestSigma)) { bestSigma = s; bestNode = v }
      }
      if (chosen.isEmpty) { round0Evals = evals; round0Ms = elapsedMs }
      chosen :+= bestNode
      sigmas :+= num.toDouble(bestSigma)
      remaining = remaining.filterNot(_ == bestNode)
    }
    ImResult(chosen, sigmas, evals, elapsedMs, round0Evals, round0Ms, completed = true)
  }
}
