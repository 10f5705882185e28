package repro.graph

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic graph generators — the reproduction's stand-in for NetworkX
  * generators and the SNAP download.
  *
  * All generators return an *undirected* edge DataFrame with columns
  * `src: Int, dst: Int` and the invariant `src < dst` (one row per undirected
  * edge, no self-loops, no duplicates). [[GraphOps.symmetrize]] converts to
  * the two-directed-edges form the paper's experiments use.
  *
  * Randomness is counter-based: every decision is `xxhash64` of stable ids,
  * so the output is deterministic in (parameters, seed) regardless of Spark
  * partitioning — a requirement for the DuckDB oracle and the
  * cross-implementation equality tests.
  */
object Generators {

  /** xxhash64 of `cols` mapped to a uniform double in [0, 1); also draws
    * the TV and UR edge weights ([[repro.weights.EdgeWeights]]).
    */
  private[repro] def unitHash(cols: Column*): Column =
    shiftrightunsigned(xxhash64(cols: _*), 11) * lit(1.1102230246251565e-16)

  /** Erdős–Rényi G(n, p): every unordered pair kept independently w.p. p.
    *
    * Enumerates the n² ordered pairs with `spark.range` and keeps the upper
    * triangle, so cost is O(n²) rows through Catalyst — fine at the paper's
    * n=2,000 scale.
    */
  def erdosRenyi(spark: SparkSession, n: Int, p: Double, seed: Long): DataFrame = {
    require(n > 1 && p >= 0 && p <= 1, s"bad ER params n=$n p=$p")
    spark
      .range(n.toLong * n)
      .select((col("id") / n).cast("int").as("src"), (col("id") % n).cast("int").as("dst"))
      .where(col("src") < col("dst"))
      .where(unitHash(col("src"), col("dst"), lit(seed)) < p)
  }

  /** Watts–Strogatz small-world graph: ring lattice where each node connects
    * to its k/2 clockwise neighbors, then each lattice edge is rewired with
    * probability `beta` to a uniformly random target (keeping the source).
    *
    * Self-loops and collisions created by rewiring are dropped rather than
    * re-drawn (NetworkX re-draws); at the paper's density the edge-count
    * difference is <1% and the small-world structure is unaffected.
    */
  def wattsStrogatz(spark: SparkSession, n: Int, k: Int, beta: Double, seed: Long): DataFrame = {
    require(k > 0 && k % 2 == 0 && k < n, s"k must be even and < n, got k=$k n=$n")
    require(beta >= 0 && beta <= 1, s"beta must be in [0,1], got $beta")
    val half = k / 2
    val lattice = spark
      .range(n.toLong * half)
      .select(
        (col("id") / half).cast("int").as("src"),
        (col("id") % half + 1).cast("int").as("j"),
        col("id").as("eid"),
      )
      .select(col("src"), ((col("src") + col("j")) % n).cast("int").as("dst"), col("eid"))
    val rewired = lattice.select(
      col("src"),
      when(
        unitHash(lit("rewire?"), col("eid"), lit(seed)) < beta,
        (unitHash(lit("target"), col("eid"), lit(seed)) * n).cast("int"),
      ).otherwise(col("dst")).as("dst"),
    )
    // Canonical undirected form (src < dst), drop self-loops/duplicates.
    rewired
      .select(least(col("src"), col("dst")).as("src"), greatest(col("src"), col("dst")).as("dst"))
      .where(col("src") =!= col("dst"))
      .distinct()
  }

  /** Chung–Lu power-law graph with a target edge count — the substitute for
    * the SNAP ego-Facebook graph (no network egress in this container).
    *
    * Endpoints are drawn by inverse-CDF from rank weights i^(-beta), giving a
    * degree power law with exponent ≈ 1 + 1/beta (beta=0.66 → γ≈2.5, the
    * social-network regime). Candidates are oversampled, canonicalized, and
    * the lexicographically-hashed first `m` edges kept, so the result is
    * deterministic with `m` undirected edges if the 2.5m draws give at least
    * `m` distinct ones. Nothing checks that here (`limit` silently returns
    * fewer rows); `GeneratorsSpec` pins 88,234 edges at the Facebook
    * substitute's parameters.
    */
  def chungLuPowerLaw(spark: SparkSession, n: Int, m: Int, beta: Double, seed: Long): DataFrame = {
    require(n > 1 && m > 0 && beta > 0 && beta < 1, s"bad CL params n=$n m=$m beta=$beta")
    val exponent = 1.0 / (1.0 - beta)
    def endpoint(tag: String): Column =
      least(lit(n - 1), (pow(unitHash(lit(tag), col("id"), lit(seed)), exponent) * n).cast("int"))
    val oversample = (m * 2.5).toLong
    val candidates = spark
      .range(oversample)
      .select(endpoint("cl-src").as("a"), endpoint("cl-dst").as("b"))
      .select(least(col("a"), col("b")).as("src"), greatest(col("a"), col("b")).as("dst"))
      .where(col("src") =!= col("dst"))
      .distinct()
    val picked = candidates
      .orderBy(xxhash64(lit("pick"), col("src"), col("dst"), lit(seed)))
      .limit(m)
    picked
  }

  /** Random k-regular graph via the union of k perfect matchings, with local
    * swap repair for cross-matching duplicate edges — the stand-in for
    * NetworkX's `random_regular_graph`. Built on the driver (sequential by
    * nature) and lifted to a DataFrame.
    *
    * The repair can get stuck, and does so more often the denser the graph.
    * A stuck attempt restarts the whole construction from the same `Random`,
    * at most `MaxAttempts` times, and a graph with 2k >= n is the complement
    * of a random (n-1-k)-regular graph.
    *
    * @param n number of nodes; must be even
    * @param k degree; k < n
    */
  def randomRegular(spark: SparkSession, n: Int, k: Int, seed: Long): DataFrame = {
    require(n % 2 == 0, s"matching construction needs even n, got $n")
    require(k > 0 && k < n, s"need 0 < k < n, got k=$k n=$n")
    val rnd = new scala.util.Random(seed)
    val sparseK = if (2 * k >= n) n - 1 - k else k
    val sparse = Iterator.fill(MaxAttempts)(matchings(n, sparseK, rnd)).collectFirst { case Some(e) => e }
      .getOrElse(throw new IllegalArgumentException(s"regular-graph repair did not converge (n=$n k=$k)"))
    val edges =
      if (sparseK == k) sparse
      else {
        val skip = sparse.toSet
        for (a <- 0 until n; b <- a + 1 until n if !skip((a, b))) yield (a, b)
      }
    import spark.implicits._
    edges.toDF("src", "dst")
  }

  private val MaxAttempts = 10

  /** One attempt at a k-regular graph's edges `(min, max)` as the union of k
    * perfect matchings; None if a matching's swap repair does not converge.
    */
  private def matchings(n: Int, k: Int, rnd: scala.util.Random): Option[Seq[(Int, Int)]] = {
    val used = new java.util.HashSet[Long]()
    @inline def key(a: Int, b: Int): Long =
      (math.min(a, b).toLong << 32) | (math.max(a, b).toLong & 0xffffffffL)
    val edges = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    var converged = true
    var m = 0
    while (converged && m < k) {
      // One perfect matching: shuffle the nodes, pair consecutive entries.
      val perm = rnd.shuffle((0 until n).toVector).toArray
      val pairs = Array.tabulate(n / 2)(i => (perm(2 * i), perm(2 * i + 1)))
      // Swap repair: a pair duplicating an existing edge trades partners
      // with a random other pair until the matching is collision-free. Each node
      // is in one pair, so (a, c) or (b, d) could only repeat pair i = (a, b)
      // or j = (c, d) of this matching, which b != c and a != d rule out.
      var attempts = 0
      var dirty = true
      while (converged && dirty) {
        dirty = false
        var i = 0
        while (converged && i < pairs.length) {
          val (a, b) = pairs(i)
          if (used.contains(key(a, b))) {
            val j = rnd.nextInt(pairs.length)
            val (c, d) = pairs(j)
            val ok = j != i && a != c && b != d && a != d && b != c &&
              !used.contains(key(a, c)) && !used.contains(key(b, d))
            if (ok) { pairs(i) = (a, c); pairs(j) = (b, d) }
            dirty = true
            attempts += 1
            converged = attempts < 100 * n
          }
          i += 1
        }
      }
      pairs.foreach { case (a, b) => used.add(key(a, b)); edges += ((math.min(a, b), math.max(a, b))) }
      m += 1
    }
    if (converged) Some(edges.toSeq) else None
  }
}
