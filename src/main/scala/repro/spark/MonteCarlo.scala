package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{CsrGraph, IndependentCascade, Model, Simulator}
import scala.reflect.ClassTag

/** Spark-distributed Monte-Carlo driver for the diffusion engines.
  *
  * This is the "parallelism" future-work direction of the paper realized at
  * the level the repro band asks for: trials (not the graph) are the
  * parallel axis. The CSR graph is broadcast once per call; an RDD range
  * fans the trial indices across cores; every task runs the same
  * counter-based-RNG simulation it would run locally, so distributed results
  * are bit-identical to local ones. σ̂ is per-partition partial sums added on
  * the driver; the trace aggregates (heatmap counts, activation curves) are
  * DataFrame pipelines, oracle-checked in the tests.
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
    perPartition(spark, g, seeds, trials, seed, model) { (sim, it) =>
      it.flatMap { trial =>
        val rows = Array.newBuilder[(Long, Int, Int)]
        sim.foreachActivation(seeds, trial)((node, step) => rows += ((trial, node, step)))
        rows.result()
      }
    }.toDF("trial", "node", "step")
  }

  /** The one Spark fan-out: checks `seeds` on the driver, broadcasts `g` and
    * maps each of min(trials, defaultParallelism) slices of the trial range
    * [0, trials), none empty, through `f` with one reusable-state simulator.
    * An IC simulator reads the key table of the broadcast graph's topology:
    * in local mode every task reads the driver's own graph, so no task
    * hashes the edges again; a deserialized copy builds its table once.
    */
  private def perPartition[T: ClassTag](spark: SparkSession, g: CsrGraph, seeds: Array[Int], trials: Int, seed: Long, model: Model)(
      f: (Simulator, Iterator[Long]) => Iterator[T]): RDD[T] = {
    require(trials > 0, "trials must be positive")
    Simulator.requireSeeds(g.n, seeds.toSeq)
    val sc = spark.sparkContext
    val bg = sc.broadcast(g)
    sc.range(0L, trials, 1L, math.min(trials, sc.defaultParallelism)).mapPartitions(it => f(model.simulator(bg.value, seed), it))
  }

  /** Distributed activated count summed over `trials` worlds: one partial sum
    * per partition, added on the driver, so one stage and no shuffle. Equal
    * to the local [[Simulator.total]] because the RNG is counter-based.
    */
  def total(
      spark: SparkSession,
      g: CsrGraph,
      seeds: Array[Int],
      trials: Int,
      seed: Long,
      model: Model = IndependentCascade,
  ): Long =
    perPartition(spark, g, seeds, trials, seed, model)((sim, it) => Iterator.single(it.map(t => sim.activatedCount(seeds, t).toLong).sum))
      .reduce(_ + _)

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
