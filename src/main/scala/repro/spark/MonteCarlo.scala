package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, Encoder, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{CsrGraph, IndependentCascade, Model, Simulator}

/** Spark-distributed Monte-Carlo driver for the diffusion engines.
  *
  * This is the "parallelism" future-work direction of the paper realized at
  * the level the repro band asks for: trials (not the graph) are the
  * parallel axis. The CSR graph is broadcast once; `spark.range(trials)`
  * fans the trial indices across cores; every task runs the same
  * counter-based-RNG simulation it would run locally, so distributed results
  * are bit-identical to local ones. Aggregations (influence, heatmap counts,
  * activation curves) are DataFrame pipelines, oracle-checked in the tests.
  */
object MonteCarlo {

  /** Per-trial activation rows: (trial, node, step) for every activated node.
    *
    * The long-form relation every downstream aggregate derives from —
    * the Spark analog of keeping raw simulation traces. Within a trial, rows
    * come out in activation order, not node order.
    */
  def activations(
      spark: SparkSession,
      g: CsrGraph,
      seeds: Array[Int],
      trials: Int,
      seed: Long,
      model: Model = IndependentCascade,
  ): DataFrame = {
    import spark.implicits._
    // Rows are read off the simulator's queue in O(activated); the next
    // trial overwrites that state, so each trial's rows are materialised
    // before the next trial is pulled.
    perTrial(spark, g, seeds, trials, seed, model) { (sim, trial) =>
      val rows = Array.newBuilder[(Long, Int, Int)]
      sim.foreachActivation(seeds, trial)((node, step) => rows += ((trial, node, step)))
      rows.result()
    }.toDF("trial", "node", "step")
  }

  /** Per-trial activated-node counts: (trial, activated). */
  def trialCounts(
      spark: SparkSession,
      g: CsrGraph,
      seeds: Array[Int],
      trials: Int,
      seed: Long,
      model: Model = IndependentCascade,
  ): DataFrame = {
    import spark.implicits._
    perTrial(spark, g, seeds, trials, seed, model)((sim, trial) => Iterator.single((trial, sim.activatedCount(seeds, trial))))
      .toDF("trial", "activated")
  }

  /** The one Spark fan-out: broadcasts `g`, spreads trials [0, trials) over
    * `spark.range`'s partitions and emits `rows(sim, trial)` for each trial.
    * One reusable-state simulator per partition amortizes its allocation
    * over the partition's trials, matching the local hot path. `seeds` are
    * checked against [0, n) here, on the driver, before any job is built.
    */
  private def perTrial[T: Encoder](spark: SparkSession, g: CsrGraph, seeds: Array[Int], trials: Int, seed: Long, model: Model)(
      rows: (Simulator, Long) => IterableOnce[T]): Dataset[T] = {
    require(trials > 0, "trials must be positive")
    Simulator.requireSeeds(g.n, seeds.toSeq)
    import spark.implicits._
    val bg = spark.sparkContext.broadcast(g)
    spark.range(trials).as[Long].mapPartitions { it =>
      val sim = model.simulator(bg.value, seed)
      it.flatMap(trial => rows(sim, trial))
    }
  }

  /** Distributed activated count summed over `trials` worlds. Equal to the
    * local [[Simulator.total]] because the RNG is counter-based.
    */
  def total(
      spark: SparkSession,
      g: CsrGraph,
      seeds: Array[Int],
      trials: Int,
      seed: Long,
      model: Model = IndependentCascade,
  ): Long =
    trialCounts(spark, g, seeds, trials, seed, model).agg(sum(col("activated"))).head().getLong(0)

  /** Distributed σ̂(S): mean activated count over `trials` worlds. */
  def influence(
      spark: SparkSession,
      g: CsrGraph,
      seeds: Array[Int],
      trials: Int,
      seed: Long,
      model: Model = IndependentCascade,
  ): Double =
    total(spark, g, seeds, trials, seed, model).toDouble / trials

  /** Heatmap data (paper Figure 2): how many trials activated each node.
    * Columns (node, activations); nodes never activated are absent.
    */
  def activationCounts(activations: DataFrame): DataFrame =
    activations.groupBy(col("node")).agg(count(lit(1)).as("activations"))

  /** Activation curve (paper Figure 3): mean cumulative activated nodes at
    * each step, averaged over all trials. Because activation counts only
    * ever grow, the mean cumulative at step s is simply
    * |{rows with step <= s}| / trials — a pure SQL window over the long-form
    * relation. Columns (step, mean_activated).
    */
  def stepCurve(activations: DataFrame, trials: Int): DataFrame = {
    require(trials > 0, "trials must be positive")
    activations
      .groupBy(col("step"))
      .agg(count(lit(1)).as("newly"))
      .select(
        col("step"),
        (sum(col("newly")).over(
          org.apache.spark.sql.expressions.Window.orderBy(col("step"))
        ) / trials).as("mean_activated"),
      )
  }
}
