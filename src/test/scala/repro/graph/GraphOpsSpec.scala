package repro.graph

import repro.{Oracle, SparkSpec}

/** Edge-list transforms vs DuckDB SQL semantics. */
class GraphOpsSpec extends SparkSpec {

  import org.apache.spark.sql.functions._

  private lazy val sample = {
    import spark.implicits._
    Seq((0, 1), (1, 2), (2, 0), (0, 2), (3, 1)).toDF("src", "dst")
  }

  test("symmetrize emits both orientations") {
    val got = GraphOps.symmetrize(sample).collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(got.contains((0, 1)) && got.contains((1, 0)))
    assert(got.contains((3, 1)) && got.contains((1, 3)))
  }

  test("symmetrize deduplicates pre-existing reverse edges") {
    // (0,2) and (2,0) both present: symmetrized set holds each direction once.
    val got = GraphOps.symmetrize(sample).collect().map(r => (r.getInt(0), r.getInt(1)))
    assert(got.length == got.distinct.length)
    assert(got.count(e => e == ((0, 2)) || e == ((2, 0))) == 2)
  }

  test("symmetrize agrees with DuckDB union semantics") {
    Oracle.assertEquivalent(
      GraphOps.symmetrize(sample).selectExpr("count(*) as m"),
      "SELECT count(*) as m FROM (SELECT src, dst FROM e UNION SELECT dst, src FROM e)",
      "e" -> sample,
    )
  }

  test("canonicalize drops self-loops") {
    import spark.implicits._
    val df = Seq((0, 0), (0, 1), (1, 1)).toDF("src", "dst")
    val got = GraphOps.canonicalize(df).collect().map(r => (r.getInt(0), r.getInt(1))).toSet
    assert(got == Set((0, 1)))
  }

  test("canonicalize drops duplicates") {
    import spark.implicits._
    val df = Seq((0, 1), (0, 1), (1, 2)).toDF("src", "dst")
    assert(GraphOps.canonicalize(df).count() == 2)
  }

  test("inDegrees agrees with DuckDB") {
    Oracle.assertEquivalent(
      GraphOps.inDegrees(sample),
      "SELECT dst as node, count(*) as in_degree FROM e GROUP BY dst",
      "e" -> sample,
    )
  }

  test("outDegrees agrees with DuckDB") {
    Oracle.assertEquivalent(
      GraphOps.outDegrees(sample),
      "SELECT src as node, count(*) as out_degree FROM e GROUP BY src",
      "e" -> sample,
    )
  }

  test("inDegrees omits nodes with no incoming edges") {
    val nodes = GraphOps.inDegrees(sample).collect().map(_.getInt(0)).toSet
    assert(!nodes.contains(3))
  }

  test("toTriples rejects a frame with no weight column") {
    val e = intercept[IllegalArgumentException](GraphOps.toTriples(sample))
    assert(e.getMessage.contains("no weight column"), e.getMessage)
  }

  test("toTriples preserves an existing weight column") {
    val weighted = sample.withColumn("weight", lit(0.25))
    assert(GraphOps.toTriples(weighted).forall(_._3 == 0.25))
  }

  test("toTriples reads bigint id columns") {
    import spark.implicits._
    val wide = Seq((0L, 1L, 0.5), (2L, 0L, 0.25)).toDF("src", "dst", "weight")
    assert(GraphOps.toTriples(wide).toSet == Set((0, 1, 0.5), (2, 0, 0.25)))
  }

  test("toTriples rejects ids that do not fit in an Int, naming the edge") {
    import spark.implicits._
    // 4294967297 = 2^32 + 1 would wrap to 1 under an Int cast.
    val wide = Seq((0L, 4294967297L, 0.5)).toDF("src", "dst", "weight")
    val e = intercept[IllegalArgumentException](GraphOps.toTriples(wide))
    assert(e.getMessage.contains("(0,4294967297)"), e.getMessage)
  }

  test("toTriples round-trips a weighted frame") {
    import spark.implicits._
    val triples = Seq((0, 1, 0.1), (1, 2, 0.9))
    assert(GraphOps.toTriples(triples.toDF("src", "dst", "weight")).toSet == triples.toSet)
  }

  test("a CsrGraph is built only through the validating builder") {
    assertCompiles("repro.core.CsrGraph.fromTriples(2, Seq((0, 1, 0.5)))")
    assertDoesNotCompile(
      "new repro.core.CsrGraph(new repro.core.CsrTopology(2, Array(0, 1, 1), Array(5)), Array(Double.NaN))")
  }

  test("symmetrize of a canonical undirected list doubles the edge count") {
    import spark.implicits._
    val undirected = Seq((0, 1), (1, 2), (0, 3)).toDF("src", "dst")
    assert(GraphOps.symmetrize(undirected).count() == 6)
  }
}
