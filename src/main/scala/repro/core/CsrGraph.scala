package repro.core

/** Compressed-sparse-row directed graph with per-edge weights.
  *
  * This is the data-structure contribution of the paper mapped onto the JVM:
  * out-neighbors of every node stored contiguously in primitive arrays (no
  * boxing, no pointer chasing), with `offsets(v) until offsets(v+1)` indexing
  * the slice of `targets`/`weights` belonging to node `v`. Immutable once
  * built — ideal for the repeated traversals diffusion simulation performs.
  *
  * The edge structure (`n`, `offsets`, `targets`) lives in a
  * [[CsrTopology]], apart from the weights, and may be shared with other
  * graphs on the same edge set (see [[CsrTopology]] for when). Nothing may
  * write to these arrays.
  *
  * The builder (`fromTriples`) works on primitive arrays only: a stable
  * counting sort by source, then a per-row sort of packed `(dst, inputIndex)`
  * longs. Time O(n + Σ_u d_u log d_u) for out-degrees d_u, i.e. at most
  * O(n + m log m); temporary space 24 bytes per input edge. Rows are sorted
  * by target, and of several edges with the same (src, dst) the first in
  * input order wins. Ids outside [0, n) and weights that are NaN or outside
  * [0, 1] are rejected, naming the edge. An edge DataFrame is built through
  * [[repro.graph.GraphOps.toTriples]], which rejects ids outside the Int
  * range. The constructor is private to `repro.core`, so code elsewhere
  * builds every graph through these checks.
  *
  * @param topology the edge structure: n, offsets and targets
  * @param weights  length m; `weights(i)` is p(src, targets(i))
  */
final class CsrGraph private[core] (
    private[core] val topology: CsrTopology,
    val weights: Array[Double],
) extends Serializable {
  require(topology.targets.length == weights.length, "targets/weights length mismatch")

  /** Number of nodes; node ids are 0 until n. */
  def n: Int = topology.n

  /** Length n+1; CSR row pointers into `targets`/`weights`. */
  def offsets: Array[Int] = topology.offsets

  /** Length m; out-neighbor ids, sorted within each row. */
  def targets: Array[Int] = topology.targets

  /** Number of directed edges. */
  def m: Int = targets.length

  /** Out-degree of node v. */
  @inline def outDegree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Sum of incoming edge weights per node (LT feasibility: must be <= 1). */
  def inWeightSums: Array[Double] = {
    val targets = this.targets
    val s = new Array[Double](n)
    var i = 0
    while (i < targets.length) { s(targets(i)) += weights(i); i += 1 }
    s
  }

  /** Edges as (src, dst, weight) triples — for tests and cross-builds. */
  def edgeTriples: IndexedSeq[(Int, Int, Double)] =
    for {
      u <- 0 until n
      i <- offsets(u) until offsets(u + 1)
    } yield (u, targets(i), weights(i))
}

/** The edge structure of a [[CsrGraph]] without its weights: `n`, the row
  * pointers `offsets` and the sorted `targets`.
  *
  * The sharing rule: [[CsrGraph.fromTriples]] remembers, weakly, the
  * topology it built last. A build whose `n`, `offsets` and `targets` equal
  * that one's takes it and drops its own arrays; any other build's topology
  * takes its place. Every caller builds the weightings of one edge set back
  * to back (TV, UR, WC, an LT normalisation), so they share one topology.
  *
  * It also carries the IC edge-key table, built on first use and shared by
  * every [[IcSimulator]] on any graph of this topology. The table is
  * transient: a Java-serialized graph (a Spark broadcast) ships without it,
  * and the copy rebuilds it once. Deserialization runs no constructor, so a
  * copy keeps its own topology.
  */
private[core] final class CsrTopology(val n: Int, val offsets: Array[Int], val targets: Array[Int]) extends Serializable {
  require(offsets.length == n + 1, s"offsets length ${offsets.length} != n+1 ${n + 1}")
  require(offsets(0) == 0, "offsets must start at 0")
  require(offsets(n) == targets.length, "offsets must end at edge count")

  /** Each edge's [[Rng.edgeKey]] in CSR order (8 B/edge): O(m) on the first
    * call, on whichever thread makes it, and free after that.
    */
  @transient private[core] lazy val edgeKeys: Array[Long] = CsrTopology.edgeKeys(n, offsets, targets)
}

private[core] object CsrTopology {

  /** Each edge's [[Rng.edgeKey]], in CSR order. A method, not an initializer
    * block: scalac runs such a block with `this` on the operand stack, and
    * HotSpot cannot compile a loop entered that way on the stack (OSR), so a
    * table built a few times (one per deserialized broadcast) would hash
    * every edge in the interpreter.
    */
  private def edgeKeys(n: Int, offsets: Array[Int], targets: Array[Int]): Array[Long] = {
    val keys = new Array[Long](targets.length)
    var u = 0
    while (u < n) {
      var j = offsets(u)
      val end = offsets(u + 1)
      while (j < end) { keys(j) = Rng.edgeKey(u, targets(j)); j += 1 }
      u += 1
    }
    keys
  }
}

object CsrGraph {

  /** The topology [[fromTriples]] built last; see [[CsrTopology]]. */
  private var lastBuilt = new java.lang.ref.WeakReference[CsrTopology](null)

  /** Build from (src, dst, weight) triples. Deduplicates exact duplicate
    * (src, dst) pairs keeping the first weight; sorts rows by target.
    *
    * @param n       node count (ids must lie in [0, n))
    * @param triples directed, weighted edges; weights must lie in [0, 1]
    */
  def fromTriples(n: Int, triples: Seq[(Int, Int, Double)]): CsrGraph = {
    val capacity = triples.size
    require(n >= 0, s"node count must be non-negative, got $n")
    val src = new Array[Int](capacity)
    val dst = new Array[Int](capacity)
    val w = new Array[Double](capacity)
    val it = triples.iterator
    var m = 0
    while (it.hasNext) {
      val e = it.next()
      val u = e._1
      val v = e._2
      val weight = e._3
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range [0,$n)")
      require(weight >= 0.0 && weight <= 1.0, s"edge ($u,$v) has weight $weight; weights must lie in [0, 1]")
      src(m) = u
      dst(m) = v
      w(m) = weight
      m += 1
    }
    // Stable counting sort by source into packed (dst, inputIndex) keys.
    val offsets = new Array[Int](n + 1)
    var i = 0
    while (i < m) { offsets(src(i) + 1) += 1; i += 1 }
    var u = 0
    while (u < n) { offsets(u + 1) += offsets(u); u += 1 }
    val next = java.util.Arrays.copyOf(offsets, n)
    val keys = new Array[Long](m)
    i = 0
    while (i < m) {
      val s = src(i)
      keys(next(s)) = (dst(i).toLong << 32) | i
      next(s) += 1
      i += 1
    }
    // Sort each row, then compact it in place keeping the first of each run.
    var out = 0
    u = 0
    while (u < n) {
      val lo = offsets(u)
      val hi = offsets(u + 1)
      java.util.Arrays.sort(keys, lo, hi)
      offsets(u) = out
      var j = lo
      while (j < hi) {
        if (j == lo || (keys(j) >>> 32) != (keys(j - 1) >>> 32)) { keys(out) = keys(j); out += 1 }
        j += 1
      }
      u += 1
    }
    offsets(n) = out
    val targets = new Array[Int](out)
    val weights = new Array[Double](out)
    var k = 0
    while (k < out) {
      targets(k) = (keys(k) >>> 32).toInt
      weights(k) = w(keys(k).toInt)
      k += 1
    }
    val topology = synchronized {
      val last = lastBuilt.get
      if (last != null && last.n == n && java.util.Arrays.equals(last.offsets, offsets) &&
          java.util.Arrays.equals(last.targets, targets)) last
      else {
        val fresh = new CsrTopology(n, offsets, targets)
        lastBuilt = new java.lang.ref.WeakReference(fresh)
        fresh
      }
    }
    new CsrGraph(topology, weights)
  }
}
