package repro.spark

import repro.SparkSpec
import repro.core.{CsrGraph, IndependentCascade}
import repro.graph.{Generators, GraphOps}
import repro.weights.EdgeWeights

/** Catalyst-native IC vs the CSR engine: same worlds, bit-identical output. */
class DataFrameICSpec extends SparkSpec {

  private val rngSeed = 83L

  private def weightedGraph(ewm: String) = {
    val undirected = Generators.erdosRenyi(spark, 60, 0.06, seed = 81)
    val directed = GraphOps.symmetrize(undirected)
    val weighted = EdgeWeights(ewm, directed, seed = 82).persist()
    (weighted, CsrGraph.fromTriples(60, GraphOps.toTriples(weighted)))
  }

  for (ewm <- EdgeWeights.All) {
    test(s"DataFrame IC == CSR IC on ER/$ewm across 4 trials") {
      val (weighted, g) = weightedGraph(ewm)
      for (trial <- 0 until 4) {
        val df = DataFrameIC.simulate(spark, weighted, Seq(0, 7), trial.toLong, rngSeed)
          .collect().map(r => r.getInt(0) -> r.getInt(1)).toMap
        val csr = IndependentCascade.simulate(g, Array(0, 7), trial.toLong, rngSeed)
        val expected = csr.activationStep.zipWithIndex
          .collect { case (s, v) if s >= 0 => v -> s }.toMap
        assert(df == expected, s"trial $trial: df=$df csr=$expected")
      }
    }
  }

  test("DataFrame IC activates exactly the seeds when all weights are 0") {
    import spark.implicits._
    val edges = Seq((0, 1, 0.0), (1, 2, 0.0)).toDF("src", "dst", "weight")
    val out = DataFrameIC.simulate(spark, edges, Seq(0), 0, 1).collect()
    assert(out.map(r => (r.getInt(0), r.getInt(1))).toSeq == Seq((0, 0)))
  }

  test("DataFrame IC with weight 1.0 walks the whole path with step = distance") {
    import spark.implicits._
    val edges = (0 until 4).map(i => (i, i + 1, 1.0)).toDF("src", "dst", "weight")
    val out = DataFrameIC.simulate(spark, edges, Seq(0), 0, 1)
      .collect().map(r => r.getInt(0) -> r.getInt(1)).toMap
    assert(out == Map(0 -> 0, 1 -> 1, 2 -> 2, 3 -> 3, 4 -> 4))
  }

  test("DataFrame IC deduplicates seed nodes") {
    import spark.implicits._
    val edges = Seq((0, 1, 0.0)).toDF("src", "dst", "weight")
    assert(DataFrameIC.simulate(spark, edges, Seq(0, 0, 0), 0, 1).count() == 1)
  }
}
