package repro.im

import scala.collection.mutable

/** CELF — Cost-Effective Lazy Forward selection (Leskovec et al. 2007).
  *
  * Exploits submodularity of σ: a candidate's marginal gain can only shrink
  * as the seed set grows, so stale gains are upper bounds. The heap keeps
  * (staleGain, node, roundComputed); a popped entry whose gain was computed
  * in the current round is optimal and selected without touching the other
  * candidates. This is the algorithm whose backend-sensitivity Table 2
  * measures: its cost is dominated by σ̂ evaluations, most of which are
  * single-seed cascades that activate a tiny fraction of the graph —
  * exactly the case frontier-based simulation wins big on.
  *
  * Ties are broken toward the smaller node id, matching [[Greedy]] when
  * candidates are passed in ascending order, so CELF == Greedy exactly for
  * a deterministic submodular objective with exact arithmetic, such as an
  * estimator's integer [[InfluenceEstimator.total]] (not its Double σ̂).
  */
object Celf {

  /** Select k seeds lazily.
    *
    * @param sigma        objective over seed sets, e.g. an estimator's `total`
    *                     or `sigma`; `sigmaValues` hold its value per prefix
    * @param candidates   candidate node ids
    * @param k            seed budget
    * @param timeBudgetMs optional wall-clock budget; on expiry the partial
    *                     result is returned with `completed = false`
    *                     (the paper's NDlib-DNF reporting)
    */
  def run[V](
      sigma: Seq[Int] => V,
      candidates: Seq[Int],
      k: Int,
      timeBudgetMs: Long = Long.MaxValue,
  )(implicit num: Numeric[V]): ImResult = {
    val distinct = candidates.distinct
    require(k > 0 && k <= distinct.size, s"need 0 < k <= |candidates|, got k=$k")
    val start = System.nanoTime()
    def elapsedMs: Long = (System.nanoTime() - start) / 1000000L
    var evals = 0L

    // Max-heap on gain; smaller node id wins ties (matches Greedy's
    // first-strictly-greater scan over ascending candidates).
    final case class Entry(gain: V, node: Int, round: Int)
    implicit val ord: Ordering[Entry] = Ordering.by[Entry, V](_.gain).orElseBy(-_.node)
    val heap = mutable.PriorityQueue.empty[Entry]

    var chosen = Vector.empty[Int]
    var sigmas = Vector.empty[Double]
    var current = num.zero

    // Round 0: every candidate's gain is σ({v}) (σ(∅) = 0 activated nodes).
    val it = distinct.iterator
    while (it.hasNext) {
      val v = it.next()
      if (elapsedMs >= timeBudgetMs) {
        val ms = elapsedMs
        return ImResult(chosen, sigmas, evals, ms, evals, ms, completed = false)
      }
      heap.enqueue(Entry(sigma(Seq(v)), v, 0))
      evals += 1
    }
    val round0Evals = evals
    val round0Ms = elapsedMs

    while (chosen.size < k) {
      if (elapsedMs >= timeBudgetMs)
        return ImResult(chosen, sigmas, evals, elapsedMs, round0Evals, round0Ms, completed = false)
      val top = heap.dequeue()
      if (top.round == chosen.size) {
        // gain was computed against the current seed set — safe to select
        chosen :+= top.node
        current = num.plus(current, top.gain)
        sigmas :+= num.toDouble(current)
      } else {
        val fresh = num.minus(sigma(chosen :+ top.node), current)
        evals += 1
        heap.enqueue(Entry(fresh, top.node, chosen.size))
      }
    }
    ImResult(chosen, sigmas, evals, elapsedMs, round0Evals, round0Ms, completed = true)
  }
}
