package repro.core

/** Reusable-state simulator: the one traversal kernel of a [[Model]].
  *
  * The paper's engine keeps its working arrays inside the model object and
  * reuses them across the thousands of simulations a CELF run performs; a
  * fresh-allocation-per-trial implementation pays O(n) allocation + zeroing
  * per cascade, which swamps the real work exactly when cascades are tiny —
  * the case Observation 1 is about. A simulator allocates per-graph state
  * once and uses an epoch-marking scheme (a per-node token compared to a
  * monotonically increasing counter) so *nothing* is reset between trials:
  * per-trial cost is strictly proportional to the edges incident to
  * activated nodes, plus one store per step.
  *
  * After a trial the activated nodes sit in `queue` in activation order, and
  * step t's frontier is `queue[ends(t-1), ends(t))` (step 0, the seeds, is
  * `queue[0, ends(0))`). [[simulate]] and [[foreachActivation]] read the
  * trial back from there instead of from an O(n) per-node array.
  *
  * Not thread-safe; create one per thread/partition.
  */
sealed abstract class Simulator(protected val g: CsrGraph) {
  /** Epoch in which each node was last activated. */
  protected final val mark = new Array[Long](g.n)
  /** Activated nodes of the current trial, in activation order. */
  protected final val queue = new Array[Int](g.n)
  /** `ends(t)` is the queue end of step t's frontier. Every step after 0
    * activates at least one node except the last, empty one, so at most
    * n + 1 entries are written.
    */
  protected final val ends = new Array[Int](g.n + 1)
  protected final var epoch = 0L

  /** Number of nodes activated in trial `trial` — the model's traversal
    * loop. It starts with [[begin]], and records each step t's queue end in
    * `ends(t)`, including the final step that activates nothing.
    */
  def activatedCount(seeds: Array[Int], trial: Long): Int

  /** Start a trial: advance the epoch, mark and queue the distinct seeds,
    * and return their count, which is also `ends(0)`.
    */
  protected final def begin(seeds: Array[Int]): Int = {
    epoch += 1
    val e = epoch
    var hi = 0
    var i = 0
    while (i < seeds.length) {
      val s = seeds(i)
      if (mark(s) != e) { mark(s) = e; queue(hi) = s; hi += 1 }
      i += 1
    }
    ends(0) = hi
    hi
  }

  /** Mean activated count over trials [0, trials). */
  final def meanInfluence(seeds: Array[Int], trials: Int): Double = {
    require(trials > 0, "trials must be positive")
    var sum = 0L
    var t = 0
    while (t < trials) { sum += activatedCount(seeds, t.toLong); t += 1 }
    sum.toDouble / trials
  }

  /** Run trial `trial` and call `f(node, step)` for every activated node, in
    * activation order (so in non-decreasing step order); O(activated).
    */
  final def foreachActivation(seeds: Array[Int], trial: Long)(f: (Int, Int) => Unit): Unit = {
    val count = activatedCount(seeds, trial)
    var t = 0
    var i = 0
    while (i < count) {
      while (ends(t) <= i) t += 1
      f(queue(i), t)
      i += 1
    }
  }

  /** Run trial `trial` with per-node activation steps (O(n) output). */
  final def simulate(seeds: Array[Int], trial: Long): SimResult =
    SimResult.record(g.n)(foreachActivation(seeds, trial))
}

/** The independent-cascade kernel; see [[IndependentCascade]]. */
final class IcSimulator(graph: CsrGraph, seed: Long) extends Simulator(graph) {

  def activatedCount(seeds: Array[Int], trial: Long): Int = {
    val offsets = g.offsets
    val targets = g.targets
    val weights = g.weights
    val mark = this.mark
    val queue = this.queue
    val ends = this.ends
    var hi = begin(seeds)
    val e = epoch
    var lo = 0
    var t = 0
    while (lo < hi) {
      val frontierEnd = hi
      while (lo < frontierEnd) {
        val u = queue(lo); lo += 1
        var j = offsets(u)
        val end = offsets(u + 1)
        while (j < end) {
          val v = targets(j)
          if (mark(v) != e && Rng.coin(seed, trial, u, v) < weights(j)) {
            mark(v) = e
            queue(hi) = v; hi += 1
          }
          j += 1
        }
      }
      t += 1
      ends(t) = hi
    }
    hi
  }
}

/** The linear-threshold kernel; see [[LinearThreshold]]. The weight
  * accumulator and the cached threshold use the same epoch marking as the
  * activation mark, so stale values from earlier trials are never read, and
  * each node's threshold is hashed once per trial however many pushes it
  * receives. Rejects a graph in which some node's in-weight sum exceeds 1.
  */
final class LtSimulator(graph: CsrGraph, seed: Long) extends Simulator(graph) {
  locally {
    val sums = g.inWeightSums
    val v = sums.indexWhere(_ > 1 + 1e-9)
    require(v < 0, s"LT needs every in-weight sum <= 1, but node $v has ${sums(v)}")
  }
  private val accMark = new Array[Long](g.n) // epoch when acc and thr were last reset
  private val acc = new Array[Double](g.n)
  private val thr = new Array[Double](g.n) // θ_v, drawn on the first push of an epoch

  def activatedCount(seeds: Array[Int], trial: Long): Int = {
    val offsets = g.offsets
    val targets = g.targets
    val weights = g.weights
    val mark = this.mark
    val queue = this.queue
    val ends = this.ends
    val accMark = this.accMark
    val acc = this.acc
    val thr = this.thr
    var hi = begin(seeds)
    val e = epoch
    var lo = 0
    var t = 0
    while (lo < hi) {
      val frontierEnd = hi
      while (lo < frontierEnd) {
        val u = queue(lo); lo += 1
        var j = offsets(u)
        val end = offsets(u + 1)
        while (j < end) {
          val v = targets(j)
          if (mark(v) != e) {
            if (accMark(v) != e) {
              accMark(v) = e
              acc(v) = 0.0
              thr(v) = Rng.threshold(seed, trial, v)
            }
            val cur = acc(v) + weights(j)
            acc(v) = cur
            if (cur >= thr(v)) {
              mark(v) = e
              queue(hi) = v; hi += 1
            }
          }
          j += 1
        }
      }
      t += 1
      ends(t) = hi
    }
    hi
  }
}
