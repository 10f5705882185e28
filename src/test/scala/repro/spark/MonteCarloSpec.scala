package repro.spark

import org.apache.spark.sql.functions._
import repro.baselines.BoxedFrontier
import repro.core.{CsrGraph, IndependentCascade, LinearThreshold}
import repro.graph.{Generators, GraphOps}
import repro.weights.EdgeWeights
import repro.{Oracle, SparkSpec}

/** Distributed Monte-Carlo vs local engines, plus oracle-checked aggregates. */
class MonteCarloSpec extends SparkSpec {

  private lazy val g: CsrGraph = {
    val undirected = Generators.erdosRenyi(spark, 150, 0.04, seed = 61)
    val weighted = EdgeWeights.weightedCascade(GraphOps.symmetrize(undirected))
    CsrGraph.fromTriples(150, GraphOps.toTriples(weighted))
  }
  private lazy val boxed = BoxedFrontier.buildAdjacency(g.edgeTriples)
  private val seeds = Array(0, 5, 9)
  private val rngSeed = 71L

  test("distributed IC influence is bit-identical to the local mean") {
    val local = IndependentCascade.simulator(g, rngSeed).meanInfluence(seeds, 40)
    val dist = MonteCarlo.influence(spark, g, seeds, 40, rngSeed, IndependentCascade)
    assert(local == dist, s"local=$local dist=$dist")
    assert(MonteCarlo.total(spark, g, seeds, 40, rngSeed) == IndependentCascade.simulator(g, rngSeed).total(seeds, 40))
  }

  test("distributed LT influence is bit-identical to the local mean") {
    val local = LinearThreshold.simulator(g, rngSeed).meanInfluence(seeds, 40)
    val dist = MonteCarlo.influence(spark, g, seeds, 40, rngSeed, LinearThreshold)
    assert(local == dist)
  }

  // The fan-out cuts t trials into min(t, p) partitions, p = defaultParallelism.
  test("distributed total equals the local total over 1, p-1 and p partitions") {
    val p = spark.sparkContext.defaultParallelism
    for (model <- Seq(IndependentCascade, LinearThreshold); trials <- Seq(1, p - 1, p, p + 1, 30).filter(_ >= 1))
      withClue(s"$model, $trials trials over ${math.min(trials, p)} partitions: ") {
        assert(MonteCarlo.total(spark, g, seeds, trials, rngSeed, model) == model.simulator(g, rngSeed).total(seeds, trials))
      }
  }

  test("activations long-form matches local simulation traces") {
    val rows = MonteCarlo.activations(spark, g, seeds, 10, rngSeed, IndependentCascade)
      .collect().map(r => (r.getLong(0), r.getInt(1)) -> r.getInt(2)).toMap
    (0 until 10).foreach { t =>
      val local = BoxedFrontier.simulateIC(g.n, boxed, seeds.toSeq, t.toLong, rngSeed)
      local.activationStep.zipWithIndex.foreach { case (s, v) =>
        if (s >= 0) assert(rows((t.toLong, v)) == s, s"trial $t node $v")
        else assert(!rows.contains((t.toLong, v)))
      }
    }
  }

  test("activations for LT match local simulation traces") {
    val rows = MonteCarlo.activations(spark, g, seeds, 8, rngSeed, LinearThreshold)
      .collect().map(r => (r.getLong(0), r.getInt(1)) -> r.getInt(2)).toMap
    (0 until 8).foreach { t =>
      val local = BoxedFrontier.simulateLT(g.n, boxed, seeds.toSeq, t.toLong, rngSeed)
      local.activationStep.zipWithIndex.foreach { case (s, v) =>
        if (s >= 0) assert(rows((t.toLong, v)) == s)
        else assert(!rows.contains((t.toLong, v)))
      }
    }
  }

  test("every trial contains the seed rows at step 0") {
    val df = MonteCarlo.activations(spark, g, seeds, 12, rngSeed)
    val seedRows = df.where(col("step") === 0).collect()
      .map(r => (r.getLong(0), r.getInt(1))).toSet
    val expected = (for (t <- 0 until 12; s <- seeds) yield (t.toLong, s)).toSet
    assert(seedRows == expected)
  }

  test("activationCounts (heatmap) agrees with DuckDB group-by") {
    val acts = MonteCarlo.activations(spark, g, seeds, 15, rngSeed).persist()
    Oracle.assertEquivalent(
      MonteCarlo.activationCounts(acts),
      "SELECT node, count(*) as activations FROM a GROUP BY node",
      "a" -> acts,
    )
  }

  test("activationCounts: seeds are activated in every trial (heatmap hot spots)") {
    val acts = MonteCarlo.activations(spark, g, seeds, 15, rngSeed)
    val counts = MonteCarlo.activationCounts(acts).collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    seeds.foreach(s => assert(counts(s) == 15, s"seed $s activated ${counts.get(s)} times"))
  }

  test("activationCounts never exceeds the trial count") {
    val acts = MonteCarlo.activations(spark, g, seeds, 15, rngSeed)
    val max = MonteCarlo.activationCounts(acts).agg(org.apache.spark.sql.functions.max("activations"))
      .head().getLong(0)
    assert(max <= 15)
  }

  test("stepCurve agrees with DuckDB cumulative semantics") {
    val acts = MonteCarlo.activations(spark, g, seeds, 15, rngSeed).persist()
    Oracle.assertEquivalent(
      MonteCarlo.stepCurve(acts, 15),
      // step is VARCHAR inside the oracle table — cast before ordering so
      // the cumulative window runs in numeric, not lexicographic, order.
      "SELECT cast(step as int) as step, " +
        "sum(cnt) OVER (ORDER BY cast(step as int)) / 15.0 as mean_activated FROM " +
        "(SELECT step, count(*) as cnt FROM a GROUP BY step)",
      "a" -> acts,
    )
  }

  test("stepCurve starts at the seed count and is monotone (Figure 3 shape)") {
    val acts = MonteCarlo.activations(spark, g, seeds, 20, rngSeed)
    val curve = MonteCarlo.stepCurve(acts, 20).orderBy("step").collect().map(_.getDouble(1))
    assert(math.abs(curve.head - seeds.length) < 1e-9, s"curve starts at ${curve.head}")
    curve.sliding(2).foreach(p => assert(p(0) <= p(1), "mean activated must be monotone"))
  }

  test("stepCurve final value equals the influence estimate") {
    val acts = MonteCarlo.activations(spark, g, seeds, 20, rngSeed)
    val last = MonteCarlo.stepCurve(acts, 20).orderBy(desc("step")).head().getDouble(1)
    val sigma = MonteCarlo.influence(spark, g, seeds, 20, rngSeed)
    assert(math.abs(last - sigma) < 1e-9)
  }

  test("activations equal the local simulator's over 1, p-1 and p partitions") {
    val p = spark.sparkContext.defaultParallelism
    for (model <- Seq(IndependentCascade, LinearThreshold); trials <- Seq(1, p - 1, p + 1).filter(_ >= 1))
      withClue(s"$model, $trials trials over ${math.min(trials, p)} partitions: ") {
        val dist = MonteCarlo.activations(spark, g, seeds, trials, rngSeed, model)
          .collect().map(r => (r.getLong(0), r.getInt(1), r.getInt(2))).toSeq.sorted
        val sim = model.simulator(g, rngSeed)
        val local = Seq.newBuilder[(Long, Int, Int)]
        (0 until trials).foreach(t => sim.foreachActivation(seeds, t.toLong)((v, s) => local += ((t.toLong, v, s))))
        assert(dist.nonEmpty && dist == local.result().sorted)
      }
  }

  test("influence rejects non-positive trial counts") {
    assertThrows[IllegalArgumentException](MonteCarlo.influence(spark, g, seeds, 0, rngSeed))
  }

  test("stepCurve rejects non-positive trial counts") {
    val acts = MonteCarlo.activations(spark, g, seeds, 2, rngSeed)
    assertThrows[IllegalArgumentException](MonteCarlo.stepCurve(acts, 0))
  }
}
