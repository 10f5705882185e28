package repro.core

/** Reusable-state simulator: the one traversal kernel of a [[Model]].
  *
  * The paper's engine keeps its working arrays inside the model object and
  * reuses them across the thousands of simulations a CELF run performs; a
  * fresh-allocation-per-trial implementation pays O(n) allocation + zeroing
  * per cascade, which swamps the real work exactly when cascades are tiny —
  * the case Observation 1 is about. A simulator allocates per-graph state
  * once and resets *nothing* between trials, so per-trial cost is strictly
  * proportional to the edges incident to activated nodes.
  *
  * `mark` holds a node's state in the current trial above a per-trial `base`:
  * `base + t` if activated at step t (t <= n - 1: each step activates a node),
  * `base - 1` if pushed but inactive (LT only), lower if untouched. Raising
  * `base` by n + 1 per trial leaves the last trial's marks at most `base - 2`
  * and the initial zeros below `base - 1 = n`; the Long lasts 2^63/(n+1) trials.
  *
  * After a trial the activated nodes sit in `queue` in activation (BFS)
  * order, so their steps are non-decreasing; [[foreachActivation]] reads
  * the trial back from `queue` and `mark` in O(activated).
  *
  * Not thread-safe; create one per thread/partition.
  */
sealed abstract class Simulator(protected val g: CsrGraph) {
  /** `base + t` for a node activated at step t of the current trial, `base - 1` for one pushed. */
  protected final val mark = new Array[Long](g.n)
  /** Activated nodes of the current trial, in activation order. */
  protected final val queue = new Array[Int](g.n)
  /** The mark of step 0 in the current trial. */
  protected final var base = 0L

  /** Number of nodes activated in trial `trial` — the model's traversal
    * loop. It starts with [[begin]], and marks a node activated by the
    * out-edges of `u` with `mark(u) + 1`.
    */
  def activatedCount(seeds: Array[Int], trial: Long): Int

  /** Start a trial: raise `base`, mark and queue the distinct seeds at step
    * 0, and return their count. Throws if a seed lies outside [0, n).
    */
  protected final def begin(seeds: Array[Int]): Int = {
    base += g.n + 1 // the + 1 keeps base - 1 above every mark of the last trial
    val b = base
    var hi = 0
    var i = 0
    while (i < seeds.length) {
      val s = seeds(i)
      if (s < 0 || s >= g.n) throw Simulator.seedOutOfRange(s, g.n)
      if (mark(s) < b) { mark(s) = b; queue(hi) = s; hi += 1 }
      i += 1
    }
    hi
  }

  /** Activated count summed over trials [0, trials). */
  final def total(seeds: Array[Int], trials: Int): Long = {
    require(trials > 0, "trials must be positive")
    var sum = 0L
    var t = 0
    while (t < trials) { sum += activatedCount(seeds, t.toLong); t += 1 }
    sum
  }

  /** Mean activated count over trials [0, trials). */
  final def meanInfluence(seeds: Array[Int], trials: Int): Double = total(seeds, trials).toDouble / trials

  /** Run trial `trial` and call `f(node, step)` for every activated node, in
    * activation order (so in non-decreasing step order); O(activated).
    */
  final def foreachActivation(seeds: Array[Int], trial: Long)(f: (Int, Int) => Unit): Unit = {
    val count = activatedCount(seeds, trial)
    var i = 0
    while (i < count) {
      val v = queue(i)
      f(v, (mark(v) - base).toInt)
      i += 1
    }
  }

  /** Run trial `trial` with per-node activation steps (O(n) output). */
  final def simulate(seeds: Array[Int], trial: Long): SimResult =
    SimResult.record(g.n)(foreachActivation(seeds, trial))
}

object Simulator {

  /** The error for a seed outside [0, n), naming the seed. */
  private[repro] def seedOutOfRange(s: Int, n: Int) = new IllegalArgumentException(s"seed $s is outside [0, $n)")

  /** Throws [[seedOutOfRange]] for the first seed outside [0, n). */
  private[repro] def requireSeeds(n: Int, seeds: Seq[Int]): Unit =
    seeds.find(s => s < 0 || s >= n).foreach(s => throw seedOutOfRange(s, n))
}

/** The independent-cascade kernel; see [[IndependentCascade]]. It reads
  * `keys`, each edge's [[Rng.edgeKey]] in CSR order (8 B/edge), so a coin
  * costs two hashes: `Rng.coinOf(seed, trial, keys(j))` equals
  * `Rng.coin(seed, trial, u, targets(j))` bit for bit. The table belongs to
  * the graph's [[CsrTopology]] (which says when graphs share one): the first
  * simulator on a topology builds it in O(m), one hash per edge, and every
  * later one reuses it. A simulator itself allocates O(n).
  */
final class IcSimulator(graph: CsrGraph, seed: Long) extends Simulator(graph) {
  private[core] val keys = g.topology.edgeKeys

  def activatedCount(seeds: Array[Int], trial: Long): Int = {
    val offsets = g.offsets
    val targets = g.targets
    val weights = g.weights
    val keys = this.keys
    val mark = this.mark
    val queue = this.queue
    var hi = begin(seeds)
    val b = base
    var lo = 0
    while (lo < hi) {
      val u = queue(lo); lo += 1
      val next = mark(u) + 1
      var j = offsets(u)
      val end = offsets(u + 1)
      while (j < end) {
        val v = targets(j)
        if (mark(v) < b && Rng.coinOf(seed, trial, keys(j)) < weights(j)) {
          mark(v) = next
          queue(hi) = v; hi += 1
        }
        j += 1
      }
    }
    hi
  }
}

/** The linear-threshold kernel; see [[LinearThreshold]]. A node's first push
  * in a trial marks it `base - 1`, zeroes `acc` and draws `thr`, so neither is
  * read outside the trial that set it, and θ_v is hashed once per trial. Rejects
  * a graph in which some node's in-weight sum exceeds 1.
  */
final class LtSimulator(graph: CsrGraph, seed: Long) extends Simulator(graph) {
  locally {
    val sums = g.inWeightSums
    val v = sums.indexWhere(_ > 1 + 1e-9)
    require(v < 0, s"LT needs every in-weight sum <= 1, but node $v has ${sums(v)}")
  }
  private val acc = new Array[Double](g.n)
  private val thr = new Array[Double](g.n) // θ_v, drawn on the first push of a trial

  def activatedCount(seeds: Array[Int], trial: Long): Int = {
    val offsets = g.offsets
    val targets = g.targets
    val weights = g.weights
    val mark = this.mark
    val queue = this.queue
    val acc = this.acc
    val thr = this.thr
    var hi = begin(seeds)
    val b = base
    var lo = 0
    while (lo < hi) {
      val u = queue(lo); lo += 1
      val next = mark(u) + 1
      var j = offsets(u)
      val end = offsets(u + 1)
      while (j < end) {
        val v = targets(j)
        val mv = mark(v)
        if (mv < b) {
          if (mv != b - 1) {
            mark(v) = b - 1
            acc(v) = 0.0
            thr(v) = Rng.threshold(seed, trial, v)
          }
          val cur = acc(v) + weights(j)
          acc(v) = cur
          if (cur >= thr(v)) {
            mark(v) = next
            queue(hi) = v; hi += 1
          }
        }
        j += 1
      }
    }
    hi
  }
}
