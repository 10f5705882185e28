package repro.graph

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}

/** Generator invariants: canonical form, determinism, counts, structure. */
class GeneratorsSpec extends SparkSpec {

  private def assertCanonicalUndirected(df: DataFrame): Unit = {
    assert(df.where("src >= dst").count() == 0, "src < dst must hold")
    assert(df.count() == df.distinct().count(), "no duplicate edges")
  }

  // ---------------------------------------------------------------- ER

  test("ER: canonical undirected form") {
    assertCanonicalUndirected(Generators.erdosRenyi(spark, 100, 0.1, seed = 1))
  }

  test("ER: node ids within range") {
    val df = Generators.erdosRenyi(spark, 50, 0.2, seed = 2)
    assert(df.where("src < 0 or dst > 49").count() == 0)
  }

  test("ER: edge count near n(n-1)/2 * p") {
    val n = 200; val p = 0.1
    val m = Generators.erdosRenyi(spark, n, p, seed = 3).count()
    val expected = n * (n - 1) / 2 * p
    assert(math.abs(m - expected) < 4 * math.sqrt(expected), s"m=$m expected≈$expected")
  }

  test("ER: deterministic in the seed") {
    val a = Generators.erdosRenyi(spark, 60, 0.15, seed = 4).collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    val b = Generators.erdosRenyi(spark, 60, 0.15, seed = 4).collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(a == b)
  }

  test("ER: different seeds give different graphs") {
    val a = Generators.erdosRenyi(spark, 60, 0.15, seed = 4).collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    val b = Generators.erdosRenyi(spark, 60, 0.15, seed = 5).collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(a != b)
  }

  test("ER: p=0 yields the empty graph") {
    assert(Generators.erdosRenyi(spark, 30, 0.0, seed = 1).count() == 0)
  }

  test("ER: p=1 yields the complete graph") {
    assert(Generators.erdosRenyi(spark, 30, 1.0, seed = 1).count() == 30 * 29 / 2)
  }

  test("ER: rejects invalid parameters") {
    assertThrows[IllegalArgumentException](Generators.erdosRenyi(spark, 1, 0.5, 1))
    assertThrows[IllegalArgumentException](Generators.erdosRenyi(spark, 10, 1.5, 1))
  }

  test("ER: edge count agrees with DuckDB over the materialized edges") {
    val df = Generators.erdosRenyi(spark, 80, 0.1, seed = 6)
    Oracle.assertEquivalent(
      df.selectExpr("count(*) as m"),
      "SELECT count(*) as m FROM edges",
      "edges" -> df,
    )
  }

  // ---------------------------------------------------------------- WS

  test("WS: canonical undirected form") {
    assertCanonicalUndirected(Generators.wattsStrogatz(spark, 100, 6, 0.1, seed = 1))
  }

  test("WS: beta=0 is the exact ring lattice") {
    val n = 40; val k = 4
    val df = Generators.wattsStrogatz(spark, n, k, 0.0, seed = 1)
    assert(df.count() == n.toLong * k / 2)
    // every node has exactly k neighbors in the symmetrized graph
    val deg = GraphOps.outDegrees(GraphOps.symmetrize(df)).collect().map(_.getLong(1))
    assert(deg.length == n && deg.forall(_ == k))
  }

  test("WS: edge count within 5% of n*k/2 for moderate beta") {
    val n = 300; val k = 6
    val m = Generators.wattsStrogatz(spark, n, k, 0.2, seed = 2).count()
    assert(m <= n.toLong * k / 2)
    assert(m > n.toLong * k / 2 * 0.95, s"m=$m lost too many edges to rewiring collisions")
  }

  test("WS: node ids within range") {
    val df = Generators.wattsStrogatz(spark, 50, 4, 0.5, seed = 3)
    assert(df.where("src < 0 or dst > 49").count() == 0)
  }

  test("WS: deterministic in the seed") {
    def edges() = Generators.wattsStrogatz(spark, 60, 4, 0.3, seed = 9)
      .collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(edges() == edges())
  }

  test("WS: beta=1 rewires away from the lattice") {
    val lattice = Generators.wattsStrogatz(spark, 100, 4, 0.0, seed = 4)
      .collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    val rewired = Generators.wattsStrogatz(spark, 100, 4, 1.0, seed = 4)
      .collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert((rewired -- lattice).nonEmpty, "beta=1 should move most edges off the lattice")
  }

  test("WS: rejects odd k and out-of-range beta") {
    assertThrows[IllegalArgumentException](Generators.wattsStrogatz(spark, 10, 3, 0.1, 1))
    assertThrows[IllegalArgumentException](Generators.wattsStrogatz(spark, 10, 4, 1.5, 1))
  }

  // ---------------------------------------------------------------- Chung–Lu

  test("Chung–Lu: canonical undirected form") {
    assertCanonicalUndirected(Generators.chungLuPowerLaw(spark, 500, 2000, 0.66, seed = 1))
  }

  test("Chung–Lu: exact requested edge count") {
    assert(Generators.chungLuPowerLaw(spark, 500, 2000, 0.66, seed = 2).count() == 2000)
  }

  test("Chung–Lu: deterministic in the seed") {
    def edges() = Generators.chungLuPowerLaw(spark, 300, 900, 0.66, seed = 7)
      .collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(edges() == edges())
  }

  test("Chung–Lu: heavy-tailed — top-decile nodes carry a large degree share") {
    val df = GraphOps.symmetrize(Generators.chungLuPowerLaw(spark, 1000, 5000, 0.66, seed = 3))
    val degs = GraphOps.outDegrees(df).collect().map(_.getLong(1)).sorted.reverse
    val total = degs.sum.toDouble
    val top = degs.take(degs.length / 10).sum.toDouble
    assert(top / total > 0.3, f"top decile carries ${top / total}%.2f of degree — not heavy-tailed")
  }

  test("Chung–Lu: node ids within range") {
    val df = Generators.chungLuPowerLaw(spark, 200, 600, 0.66, seed = 4)
    assert(df.where("src < 0 or dst > 199").count() == 0)
  }

  test("Chung–Lu: rejects infeasible beta") {
    assertThrows[IllegalArgumentException](Generators.chungLuPowerLaw(spark, 10, 5, 1.5, 1))
  }

  test("Chung–Lu: Facebook-substitute scale (4039 nodes, 88234 edges)") {
    val df = Generators.chungLuPowerLaw(spark, 4039, 88234, 0.66, seed = 13)
    assert(df.count() == 88234)
    assert(df.selectExpr("max(dst) as mx").head().getInt(0) < 4039)
  }

  // ---------------------------------------------------------------- random regular

  test("random regular: every node has exactly degree k") {
    val n = 100; val k = 7
    val df = GraphOps.symmetrize(Generators.randomRegular(spark, n, k, seed = 1))
    val deg = GraphOps.outDegrees(df).collect().map(_.getLong(1))
    assert(deg.length == n)
    assert(deg.forall(_ == k), s"degrees ${deg.distinct.mkString(",")}")
  }

  test("random regular: undirected edge count is n*k/2") {
    assert(Generators.randomRegular(spark, 100, 7, seed = 2).count() == 100 * 7 / 2)
  }

  test("random regular: no self-loops, no duplicates") {
    val df = Generators.randomRegular(spark, 60, 5, seed = 3)
    assert(df.where("src = dst").count() == 0)
    assert(df.count() == df.distinct().count())
  }

  test("random regular: deterministic in the seed") {
    def edges() = Generators.randomRegular(spark, 40, 3, seed = 11)
      .collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(edges() == edges())
  }

  test("random regular: different seeds differ") {
    val a = Generators.randomRegular(spark, 40, 3, seed = 11).collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    val b = Generators.randomRegular(spark, 40, 3, seed = 12).collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(a != b)
  }

  test("random regular: paper scale (n=5000, k=7) builds and is regular") {
    val df = Generators.randomRegular(spark, 5000, 7, seed = 21)
    assert(df.count() == 5000L * 7 / 2)
    val deg = GraphOps.outDegrees(GraphOps.symmetrize(df)).collect().map(_.getLong(1))
    assert(deg.length == 5000 && deg.forall(_ == 7))
  }

  test("random regular: dense degrees up to k = n-1 give simple k-regular graphs") {
    for {
      n <- Seq(4, 6, 8, 10, 12, 20)
      k <- Seq(n / 2, n - 3, n - 2, n - 1).distinct
      seed <- 1L to 3L
    } {
      val edges = Generators.randomRegular(spark, n, k, seed).collect().map(r => (r.getInt(0), r.getInt(1)))
      val clue = s"n=$n k=$k seed=$seed"
      assert(edges.forall { case (a, b) => a < b }, s"src < dst must hold ($clue)")
      assert(edges.distinct.length == edges.length, s"duplicate edges ($clue)")
      val deg = edges.flatMap { case (a, b) => Seq(a, b) }.groupBy(identity).map { case (v, vs) => v -> vs.length }
      assert((0 until n).forall(v => deg.getOrElse(v, 0) == k), s"degrees $deg ($clue)")
    }
  }

  test("random regular: rejects odd n and k >= n") {
    assertThrows[IllegalArgumentException](Generators.randomRegular(spark, 7, 2, 1))
    assertThrows[IllegalArgumentException](Generators.randomRegular(spark, 10, 10, 1))
  }

  test("random regular: degree check agrees with DuckDB") {
    val df = GraphOps.symmetrize(Generators.randomRegular(spark, 30, 4, seed = 5))
    Oracle.assertEquivalent(
      GraphOps.outDegrees(df).selectExpr("count(*) as nodes", "min(out_degree) as mn", "max(out_degree) as mx"),
      "SELECT count(*) as nodes, min(d) as mn, max(d) as mx FROM " +
        "(SELECT src, count(*) as d FROM edges GROUP BY src)",
      "edges" -> df,
    )
  }
}
