package repro.core

/** Reusable-state simulators for the Monte-Carlo hot path.
  *
  * The paper's engine keeps its working arrays inside the model object and
  * reuses them across the thousands of simulations a CELF run performs; a
  * fresh-allocation-per-trial implementation pays O(n) allocation + zeroing
  * per cascade, which swamps the real work exactly when cascades are tiny —
  * the case Observation 1 is about. These simulators allocate per-graph
  * state once and use an epoch-marking scheme (a per-node token compared to
  * a monotonically increasing counter) so *nothing* is reset between trials:
  * per-trial cost is strictly proportional to the edges incident to
  * activated nodes.
  *
  * Not thread-safe; create one per thread/partition.
  */
final class IcSimulator(g: CsrGraph, seed: Long) {
  private val mark = new Array[Long](g.n) // epoch when node was last visited
  private val queue = new Array[Int](g.n)
  private var epoch = 0L

  /** Number of nodes activated in IC trial `trial`; identical output to
    * [[IndependentCascade.activatedCount]] (tested), amortized allocation.
    */
  def activatedCount(seeds: Array[Int], trial: Long): Int = {
    epoch += 1
    val e = epoch
    var hi = 0
    var i = 0
    while (i < seeds.length) {
      val s = seeds(i)
      if (mark(s) != e) { mark(s) = e; queue(hi) = s; hi += 1 }
      i += 1
    }
    var lo = 0
    while (lo < hi) {
      val u = queue(lo); lo += 1
      var j = g.offsets(u)
      val end = g.offsets(u + 1)
      while (j < end) {
        val v = g.targets(j)
        if (mark(v) != e && Rng.coin(seed, trial, u, v) < g.weights(j)) {
          mark(v) = e
          queue(hi) = v; hi += 1
        }
        j += 1
      }
    }
    hi
  }

  /** Mean activated count over trials [0, trials). */
  def meanInfluence(seeds: Array[Int], trials: Int): Double = {
    require(trials > 0, "trials must be positive")
    var sum = 0L
    var t = 0
    while (t < trials) { sum += activatedCount(seeds, t.toLong); t += 1 }
    sum.toDouble / trials
  }
}

/** Reusable-state LT simulator; see [[IcSimulator]] for the scheme. The
  * weight accumulator and the cached threshold use the same epoch marking,
  * so stale values from earlier trials are never read, and each node's
  * threshold is hashed once per trial however many pushes it receives.
  */
final class LtSimulator(g: CsrGraph, seed: Long) {
  private val mark = new Array[Long](g.n) // epoch when node was activated
  private val accMark = new Array[Long](g.n) // epoch when acc and thr were last reset
  private val acc = new Array[Double](g.n)
  private val thr = new Array[Double](g.n) // θ_v, drawn on the first push of an epoch
  private val queue = new Array[Int](g.n)
  private var epoch = 0L

  /** Number of nodes activated in LT trial `trial`; identical output to
    * [[LinearThreshold.activatedCount]] (tested), amortized allocation.
    */
  def activatedCount(seeds: Array[Int], trial: Long): Int = {
    epoch += 1
    val e = epoch
    var hi = 0
    var i = 0
    while (i < seeds.length) {
      val s = seeds(i)
      if (mark(s) != e) { mark(s) = e; queue(hi) = s; hi += 1 }
      i += 1
    }
    var lo = 0
    while (lo < hi) {
      val u = queue(lo); lo += 1
      var j = g.offsets(u)
      val end = g.offsets(u + 1)
      while (j < end) {
        val v = g.targets(j)
        if (mark(v) != e) {
          if (accMark(v) != e) {
            accMark(v) = e
            acc(v) = 0.0
            thr(v) = Rng.threshold(seed, trial, v)
          }
          val cur = acc(v) + g.weights(j)
          acc(v) = cur
          if (cur >= thr(v)) {
            mark(v) = e
            queue(hi) = v; hi += 1
          }
        }
        j += 1
      }
    }
    hi
  }

  /** Mean activated count over trials [0, trials). */
  def meanInfluence(seeds: Array[Int], trials: Int): Double = {
    require(trials > 0, "trials must be positive")
    var sum = 0L
    var t = 0
    while (t < trials) { sum += activatedCount(seeds, t.toLong); t += 1 }
    sum.toDouble / trials
  }
}
