package repro.core

/** Compressed-sparse-row directed graph with per-edge weights.
  *
  * This is the data-structure contribution of the paper mapped onto the JVM:
  * out-neighbors of every node stored contiguously in primitive arrays (no
  * boxing, no pointer chasing), with `offsets(v) until offsets(v+1)` indexing
  * the slice of `targets`/`weights` belonging to node `v`. Immutable once
  * built — ideal for the repeated traversals diffusion simulation performs.
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
  * @param n       number of nodes; node ids are 0 until n
  * @param offsets length n+1; CSR row pointers into `targets`/`weights`
  * @param targets length m; out-neighbor ids, sorted within each row
  * @param weights length m; `weights(i)` is p(src, targets(i))
  */
final class CsrGraph private[core] (
    val n: Int,
    val offsets: Array[Int],
    val targets: Array[Int],
    val weights: Array[Double],
) extends Serializable {
  require(offsets.length == n + 1, s"offsets length ${offsets.length} != n+1 ${n + 1}")
  require(offsets(0) == 0, "offsets must start at 0")
  require(offsets(n) == targets.length, "offsets must end at edge count")
  require(targets.length == weights.length, "targets/weights length mismatch")

  /** Number of directed edges. */
  def m: Int = targets.length

  /** Out-degree of node v. */
  @inline def outDegree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Sum of incoming edge weights per node (LT feasibility: must be <= 1). */
  def inWeightSums: Array[Double] = {
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

object CsrGraph {

  /** Build from (src, dst, weight) triples. Deduplicates exact duplicate
    * (src, dst) pairs keeping the first weight; sorts rows by target.
    *
    * @param n       node count (ids must lie in [0, n))
    * @param triples directed, weighted edges; weights must lie in [0, 1]
    */
  def fromTriples(n: Int, triples: Seq[(Int, Int, Double)]): CsrGraph = {
    val b = new Builder(n, triples.size)
    triples.foreach { case (u, v, w) => b.add(u, v, w) }
    b.result()
  }

  /** Primitive-array CSR builder behind [[fromTriples]]. `add` copies
    * and validates one edge; `result` counting-sorts by source, sorts each
    * row as packed longs `(dst << 32) | inputIndex` (so equal targets stay in
    * input order) and keeps the first entry of every run of equal targets.
    */
  private final class Builder(n: Int, capacity: Int) {
    require(n >= 0, s"node count must be non-negative, got $n")
    private val src = new Array[Int](capacity)
    private val dst = new Array[Int](capacity)
    private val w = new Array[Double](capacity)
    private var m = 0

    def add(u: Int, v: Int, weight: Double): Unit = {
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range [0,$n)")
      require(weight >= 0.0 && weight <= 1.0, s"edge ($u,$v) has weight $weight; weights must lie in [0, 1]")
      src(m) = u
      dst(m) = v
      w(m) = weight
      m += 1
    }

    def result(): CsrGraph = {
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
      new CsrGraph(n, offsets, targets, weights)
    }
  }
}
