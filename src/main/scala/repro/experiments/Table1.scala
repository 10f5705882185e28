package repro.experiments

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{BoxedFrontier, FullScan}
import repro.core.{CsrGraph, IcSimulator, Rng}
import repro.graph.{Generators, GraphOps}
import repro.weights.EdgeWeights

/** Paper Table 1: "Comparison of run-times for independent cascade run with
  * 100 seeds on different graphs. Runtimes are normalized and rounded over
  * each row so that the fastest benchmark in each row is 1."
  *
  * Grid: {Erdős–Rényi, Watts–Strogatz, Facebook-substitute} ×
  * {TV, UR, WC} × {CSR engine, boxed-frontier ("pure Python"),
  * full-scan ("NDlib")}. The paper's graph-parameter sentence is corrupted
  * in the source text; parameters below are stated in DESIGN.md §3.
  */
object Table1 {

  private val NSeeds = 100 // the paper's "run with 100 seeds"
  private val RngSeed = 7L
  private val MaxTrials = 1000 // per rung and cell; EXPERIMENTS.md's figures use these two
  private val MinTimeMs = 2000L

  /** One benchmark cell grid row, with the adaptive trial count each rung's
    * timing used.
    */
  final case class Row(
      graph: String,
      ewm: String,
      csrPerTrialMs: Double,
      boxedPerTrialMs: Double,
      fullScanPerTrialMs: Double,
      csrTrials: Int,
      boxedTrials: Int,
      fullScanTrials: Int,
  ) {
    private def norm(x: Double): Long = math.round(x / List(csrPerTrialMs, boxedPerTrialMs, fullScanPerTrialMs).min)
    def csrNorm: Long = norm(csrPerTrialMs)
    def boxedNorm: Long = norm(boxedPerTrialMs)
    def fullScanNorm: Long = norm(fullScanPerTrialMs)
  }

  /** (name, node count, undirected edges), in the paper's row order. */
  def graphs(spark: SparkSession): Seq[(String, Int, DataFrame)] = Seq(
    ("Erdős–Rényi", 2000, Generators.erdosRenyi(spark, n = 2000, p = 0.01, seed = 11)),
    ("Watts–Strogatz", 2000, Generators.wattsStrogatz(spark, n = 2000, k = 10, beta = 0.1, seed = 12)),
    ("Facebook (Chung–Lu)", 4039, Generators.chungLuPowerLaw(spark, n = 4039, m = 88234, beta = 0.66, seed = 13)),
  )

  /** Deterministic pseudo-random seed set: the `count` nodes with the
    * smallest hash under `seed` — a fixed uniform sample shared by every
    * implementation and trial.
    */
  def pickSeeds(n: Int, count: Int, seed: Long): Array[Int] =
    (0 until n).sortBy(v => Rng.unit(seed, v)).take(count).toArray

  /** Run one (graph, EWM) cell across the three implementations. */
  def runCell(
      graphName: String,
      ewm: String,
      weighted: DataFrame,
      n: Int,
      nSeeds: Int,
      maxTrials: Int,
      minTimeMs: Long,
  ): Row = {
    val triples = GraphOps.toTriples(weighted)
    val g = CsrGraph.fromTriples(n, triples)
    val adjBoxed = BoxedFrontier.buildAdjacency(triples)
    val adjScan = FullScan.buildAdjacency(triples)
    val seeds = pickSeeds(n, nSeeds, seed = 101)
    val seedSeq = seeds.toSeq

    // Each rung runs its natural repeated-simulation hot path: the paper's
    // engine keeps model state inside the model object across simulations
    // (IcSimulator), the interpreted baselines allocate their dict/set state
    // per simulation, as the Python originals do.
    val sim = new IcSimulator(g, RngSeed)
    val csr = Timing.perTrialMs(
      t => { sim.activatedCount(seeds, t); () },
      maxTrials, minTimeMs)
    val boxed = Timing.perTrialMs(
      t => { BoxedFrontier.activatedCountIC(adjBoxed, seedSeq, t, RngSeed); () },
      maxTrials, minTimeMs)
    val scan = Timing.perTrialMs(
      t => { FullScan.activatedCountIC(n, adjScan, seedSeq, t, RngSeed); () },
      maxTrials, minTimeMs)
    Row(graphName, ewm, csr.ms, boxed.ms, scan.ms, csr.trials, boxed.trials, scan.trials)
  }

  /** Run the full 3×3 grid, caching each graph's edge list while its cells are built. */
  def run(spark: SparkSession): Seq[Row] =
    graphs(spark).flatMap { case (gName, n, undirected) =>
      val edges = GraphOps.symmetrize(undirected).persist()
      try EdgeWeights.All.map(ewm => runCell(gName, ewm, EdgeWeights(ewm, edges, seed = 31), n, NSeeds, MaxTrials, MinTimeMs))
      finally edges.unpersist()
    }

  /** Paper-format rendering: normalized runtimes, fastest = 1. */
  def render(rows: Seq[Row]): String = {
    val header = f"${"Graph"}%-22s ${"EWM"}%-4s ${"CSR(CyNetDiff)"}%16s ${"boxed(pure-Py)"}%16s ${"fullscan(NDlib)"}%16s"
    val lines = rows.map { r =>
      f"${r.graph}%-22s ${r.ewm}%-4s ${r.csrNorm}%16d ${r.boxedNorm}%16d ${r.fullScanNorm}%16d"
    }
    (header +: lines).mkString("\n")
  }

  /** Raw per-trial milliseconds and trial counts (for EXPERIMENTS.md context). */
  def renderRaw(rows: Seq[Row]): String = {
    val header = f"${"Graph"}%-22s ${"EWM"}%-4s ${"csr ms/trial"}%14s ${"boxed ms/trial"}%15s ${"scan ms/trial"}%14s" +
      f" ${"csr trials"}%10s ${"boxed trials"}%12s ${"scan trials"}%11s"
    val lines = rows.map { r =>
      f"${r.graph}%-22s ${r.ewm}%-4s ${r.csrPerTrialMs}%14.4f ${r.boxedPerTrialMs}%15.4f ${r.fullScanPerTrialMs}%14.4f" +
        f" ${r.csrTrials}%10d ${r.boxedTrials}%12d ${r.fullScanTrials}%11d"
    }
    (header +: lines).mkString("\n")
  }
}
