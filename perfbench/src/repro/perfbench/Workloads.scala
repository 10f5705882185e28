package repro.perfbench

import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.{DataFrame, Row}
import repro.baselines.BoxedFrontier
import repro.core.{CsrGraph, IcSimulator, IndependentCascade, LtSimulator}
import repro.graph.{Generators, GraphOps}
import repro.im.{BoxedEstimator, Celf, CsrEstimator, ImResult, SparkEstimator}
import repro.spark.MonteCarlo
import repro.weights.EdgeWeights

/** Table 2's CSR column: CELF (k=10, every node a candidate, σ̂ over 100
  * worlds) on a random 7-regular graph with n=5,000, once with TV and once
  * with WC weights. One operation is the TV + WC pair. The time is in
  * `repro.im` and in millions of tiny frontier cascades in `repro.core`;
  * Spark is idle after set-up.
  *
  * WC on a regular graph is a critical cascade (one live out-edge per node
  * on average), so the cost of one set of 100 worlds swings by tens of
  * percent with the worlds drawn. Each operation therefore draws its own
  * worlds (RNG seed derived from the workload seed and the operation
  * number), and the run's median is over many world sets, not one.
  */
final class CelfRegular(ctx: Ctx) extends Workload(ctx) {
  private val N = 5000
  private val Degree = 7
  private val K = 10
  private val Trials = 100
  private val Ewms = Seq("TV", "WC")
  private val candidates = 0 until N

  private var graphs: Map[String, CsrGraph] = Map.empty
  private val results = ArrayBuffer.empty[Seq[ImResult]]
  private val pairSeconds = ArrayBuffer.empty[Double]

  private def worlds(op: Int): Long = Ctx.derive(ctx.rngSeed, op.toLong)

  private def celfPair(op: Int, traced: Boolean): Seq[ImResult] = Ewms.map { e =>
    val est = new CsrEstimator(graphs(e), Trials, worlds(op))
    if (!traced) Celf.run(est.sigma, candidates, K)
    else ctx.tracer.span("im.celf")(Celf.run(s => ctx.tracer.span("im.sigma_eval")(est.sigma(s)), candidates, K))
  }

  def setUp(): Unit = {
    val undirected = ctx.tracer.span("graph.generate")(
      ctx.force(Generators.randomRegular(ctx.spark, N, Degree, ctx.genSeed)))
    val edges = ctx.tracer.span("graph.symmetrize")(ctx.force(ctx.keep(GraphOps.symmetrize(undirected))))
    graphs = Ewms.map(e => e -> ctx.csrFor(N, e, edges)).toMap
    // Same warm-up as the Table 2 harness: a few σ̂ calls per estimator.
    ctx.tracer.span("setup.warmup")(graphs.values.foreach { g =>
      val est = new CsrEstimator(g, Trials, worlds(-1))
      (0 until 10).foreach(v => est.sigma(Seq(v)))
    })
  }

  def op(): Unit = {
    val t0 = System.nanoTime()
    results += celfPair(results.size, ctx.tracer.enabled)
    pairSeconds += (System.nanoTime() - t0) / 1e9
  }

  def checkLast(): Boolean = results.last.forall { r =>
    r.completed && r.seeds.distinct.size == K && r.sigmaValues.zip(r.sigmaValues.tail).forall { case (a, b) => a <= b }
  }

  /** For a sample of operations: a repetition selects the same seeds with the
    * same σ̂, and σ̂ of every selected prefix equals the boxed-frontier value.
    */
  def finalChecks(): Seq[(String, Boolean)] =
    Seq(0, results.size / 2, results.size - 1).distinct.flatMap { op =>
      val again = celfPair(op, traced = false)
      Ewms.indices.flatMap { i =>
        val r = results(op)(i)
        val boxed = new BoxedEstimator(N, graphs(Ewms(i)).edgeTriples, Trials, worlds(op))
        Seq(
          s"celf.op$op.${Ewms(i)}.repeats" -> (again(i).seeds == r.seeds && again(i).sigmaValues == r.sigmaValues),
          s"celf.op$op.${Ewms(i)}.prefix_sigma_equals_boxed" ->
            r.seeds.indices.forall(j => boxed.sigma(r.seeds.take(j + 1)) == r.sigmaValues(j)),
        )
      }
    }

  def userMetrics: Seq[Reported] = Seq(Reported.of("celf_s", "s", pairSeconds.toSeq))

  def csrGraphs: Seq[CsrGraph] = Ewms.map(graphs)
  def primary: CsrGraph = graphs("TV")
  // TV weights are at most 0.1 and every in-degree is 7, so in-sums stay <= 0.7.
  def ltGraph: CsrGraph = graphs("TV")
  def probeSeeds: Array[Int] = ctx.pick(N, K, salt = 1)
  def celf: CelfSpec = CelfSpec(graphs("TV"), candidates, K, Trials)
  def opRunsCelf: Boolean = true
}

/** Table 1's heaviest row: the Chung–Lu Facebook substitute (n=4,039,
  * m=88,234 undirected) with a fixed 100-node seed set. One operation is one
  * round: an IC trial on each of TV, UR and WC, then an LT trial on
  * LT-normalised UR, all with the round number as trial index. Large
  * cascades make the time ≈ edges scanned × (RNG + CSR access); CELF and
  * Spark are bypassed.
  */
final class McFacebook(ctx: Ctx) extends Workload(ctx) {
  private val N = McFacebook.N
  private val Ewms = Seq("TV", "UR", "WC")
  private val seeds = ctx.stratified(N, 100, salt = 2)

  private var ic: Seq[CsrGraph] = Nil
  private var lt: CsrGraph = _
  private var icSims: Seq[IcSimulator] = Nil
  private var ltSim: LtSimulator = _
  private var round = 0
  private val counts = ArrayBuffer.empty[Array[Int]]
  private val icTrialMs = ArrayBuffer.empty[Double]
  private val ltTrialMs = ArrayBuffer.empty[Double]

  def setUp(): Unit = {
    val undirected = ctx.tracer.span("graph.generate")(ctx.force(McFacebook.generate(ctx)))
    val edges = ctx.tracer.span("graph.symmetrize")(ctx.force(ctx.keep(GraphOps.symmetrize(undirected))))
    ic = Ewms.map(e => ctx.csrFor(N, e, edges))
    lt = ctx.weightedCsr(N, "UR-LT", EdgeWeights.normalizeForLT(EdgeWeights("UR", edges, ctx.weightSeed)))
    icSims = ic.map(g => new IcSimulator(g, ctx.rngSeed))
    ltSim = new LtSimulator(lt, ctx.rngSeed)
    ctx.tracer.span("setup.warmup")((0 until 20).foreach { t =>
      icSims.foreach(_.activatedCount(seeds, t.toLong)); ltSim.activatedCount(seeds, t.toLong)
    })
  }

  def op(): Unit = {
    val t = round.toLong
    val row = new Array[Int](Ewms.size + 1)
    var i = 0
    while (i < icSims.size) { row(i) = timed(icTrialMs, "core.ic_trial", 1e3)(icSims(i).activatedCount(seeds, t)); i += 1 }
    row(i) = timed(ltTrialMs, "core.lt_trial", 1e3)(ltSim.activatedCount(seeds, t))
    counts += row
    round += 1
  }

  def checkLast(): Boolean = counts.last.forall(c => c >= seeds.length && c <= N)

  /** A deterministic sample of rounds must match the boxed-frontier counts. */
  def finalChecks(): Seq[(String, Boolean)] = {
    val adjIc = ic.map(g => BoxedFrontier.buildAdjacency(g.edgeTriples))
    val adjLt = BoxedFrontier.buildAdjacency(lt.edgeTriples)
    val s = seeds.toSeq
    val stride = math.max(1, counts.size / 16)
    (0 until counts.size by stride).map { r =>
      val row = counts(r)
      val ok = adjIc.indices.forall(i => BoxedFrontier.activatedCountIC(adjIc(i), s, r.toLong, ctx.rngSeed) == row(i)) &&
        BoxedFrontier.activatedCountLT(adjLt, s, r.toLong, ctx.rngSeed) == row(adjIc.size)
      s"mc.round_$r.equals_boxed" -> ok
    }
  }

  def userMetrics: Seq[Reported] = Seq(
    Reported.value("ic_trials_per_s", "1/s", icTrialMs.size / (icTrialMs.sum / 1e3), icTrialMs.size),
    Reported.value("lt_trials_per_s", "1/s", ltTrialMs.size / (ltTrialMs.sum / 1e3), ltTrialMs.size),
  ) ++ Ewms.indices.map { i =>
    // Trials run round-robin, so model i's trials are every size-th sample.
    Reported.of(s"ic_trial_ms.${Ewms(i)}", "ms", icTrialMs.indices.collect { case j if j % Ewms.size == i => icTrialMs(j) })
  } :+ Reported.of("lt_trial_ms.UR", "ms", ltTrialMs.toSeq)

  def csrGraphs: Seq[CsrGraph] = ic :+ lt
  def primary: CsrGraph = ic.head
  def ltGraph: CsrGraph = lt
  def probeSeeds: Array[Int] = seeds
  // WC, as in spark-fanout: on TV the hubs make single-seed cascades large,
  // and the boxed-frontier rerun of the probe would take minutes.
  def celf: CelfSpec = CelfSpec(ic(2), ctx.pick(N, 24, salt = 4).sorted.toIndexedSeq, 3, 100)
  def opRunsCelf: Boolean = false
}

object McFacebook {
  val N = 4039
  val M = 88234

  /** The Chung–Lu substitute for SNAP ego-Facebook used by Table 1. */
  def generate(ctx: Ctx): DataFrame = Generators.chungLuPowerLaw(ctx.spark, N, M, beta = 0.66, seed = ctx.genSeed)
}

/** `repro.spark` used three ways on the Facebook substitute with WC weights
  * and the fixed 100-node seed set. One operation is one round of: a large
  * `MonteCarlo.influence` (a throughput-bound job); `MonteCarlo.activations`
  * aggregated by `stepCurve` and `activationCounts` (a long-form write plus
  * Catalyst aggregation, through the step-recording
  * `IndependentCascade.simulate`); and CELF over `SparkEstimator` on a small
  * candidate set (one Spark job per σ̂, so per-job overhead).
  *
  * Runnable by name but not listed in BENCHMARK.json: its jobs use every
  * core, so on a shared 4-vCPU host the operation time swings by tens of
  * percent from run to run with the neighbours' load. The Spark layer is
  * still measured on every listed workload by the traced run's probes.
  */
final class SparkFanout(ctx: Ctx) extends Workload(ctx) {
  private val N = McFacebook.N
  private val SigmaTrials = 20000
  private val CurveTrials = 2000
  private val CelfTrials = 100
  private val CelfK = 3
  private val seeds = ctx.stratified(N, 100, salt = 2)
  private val candidates = ctx.pick(N, 24, salt = 4).sorted.toIndexedSeq

  private var g: CsrGraph = _
  private var estimator: SparkEstimator = _
  private final case class Out(sigma: Double, curve: Seq[(Int, Double)], rows: Long, celf: ImResult)
  private var last: Out = _
  private var reference: Out = _
  private val sigmaSeconds, curveSeconds, celfSeconds = ArrayBuffer.empty[Double]

  def setUp(): Unit = {
    val undirected = ctx.tracer.span("graph.generate")(ctx.force(McFacebook.generate(ctx)))
    val edges = ctx.tracer.span("graph.symmetrize")(ctx.force(ctx.keep(GraphOps.symmetrize(undirected))))
    g = ctx.csrFor(N, "WC", edges)
    estimator = new SparkEstimator(ctx.spark, g, CelfTrials, ctx.rngSeed)
    ctx.tracer.span("setup.warmup") {
      MonteCarlo.influence(ctx.spark, g, seeds, ctx.cores, ctx.rngSeed)
      SparkFanout.curveOf(MonteCarlo.activations(ctx.spark, g, seeds, ctx.cores, ctx.rngSeed), ctx.cores)
      estimator.sigma(Seq(candidates.head))
    }
  }

  def op(): Unit = {
    val sigma = timed(sigmaSeconds, "spark.sigma", 1)(MonteCarlo.influence(ctx.spark, g, seeds, SigmaTrials, ctx.rngSeed))
    val (curve, rows) = timed(curveSeconds, "spark.curve", 1)(
      SparkFanout.curveOf(MonteCarlo.activations(ctx.spark, g, seeds, CurveTrials, ctx.rngSeed), CurveTrials))
    val celf = timed(celfSeconds, "im.celf", 1)(
      Celf.run(s => ctx.tracer.span("im.sigma_eval")(estimator.sigma(s)), candidates, CelfK))
    last = Out(sigma, curve, rows, celf)
  }

  /** Every round must repeat the first, and the curve must end at rows/trials. */
  def checkLast(): Boolean = {
    if (reference == null) reference = last
    last.celf.completed && last.curve.nonEmpty && last.curve.last._2 == last.rows.toDouble / CurveTrials &&
      last.sigma == reference.sigma && last.rows == reference.rows && last.curve == reference.curve &&
      last.celf.seeds == reference.celf.seeds
  }

  private var localSigmaSeconds = Double.NaN

  /** Spark results must equal the local CSR engine's, bit for bit. */
  def finalChecks(): Seq[(String, Boolean)] = {
    val sim = new IcSimulator(g, ctx.rngSeed)
    val t0 = System.nanoTime()
    var sum = 0L
    var t = 0
    while (t < SigmaTrials) { sum += sim.activatedCount(seeds, t.toLong); t += 1 }
    localSigmaSeconds = (System.nanoTime() - t0) / 1e9
    val localRows = (0 until CurveTrials).map(t => IndependentCascade.simulate(g, seeds, t.toLong, ctx.rngSeed).totalActivated.toLong).sum
    val localCelf = Celf.run(new CsrEstimator(g, CelfTrials, ctx.rngSeed).sigma, candidates, CelfK)
    Seq(
      "spark.sigma_equals_local" -> (reference.sigma == sum.toDouble / SigmaTrials),
      "spark.activation_rows_equal_local" -> (reference.rows == localRows),
      "spark.celf_seeds_equal_csr" -> (reference.celf.seeds == localCelf.seeds),
    )
  }

  def userMetrics: Seq[Reported] = Seq(
    Reported.of("spark_sigma_s", "s", sigmaSeconds.toSeq),
    Reported.of("spark_curve_s", "s", curveSeconds.toSeq),
    Reported.of("spark_celf_s", "s", celfSeconds.toSeq),
    Reported.value("spark_sigma_trials_per_s", "1/s", SigmaTrials / Stats.median(sigmaSeconds.toSeq), sigmaSeconds.size),
    Reported.value("spark_sigma_parallel_efficiency", "ratio",
      localSigmaSeconds / (ctx.cores * Stats.median(sigmaSeconds.toSeq)), sigmaSeconds.size),
  )

  def csrGraphs: Seq[CsrGraph] = Seq(g)
  def primary: CsrGraph = g
  // WC is a fixed point of LT normalisation: every in-sum is 1 up to rounding.
  def ltGraph: CsrGraph = g
  def probeSeeds: Array[Int] = seeds
  def celf: CelfSpec = CelfSpec(g, candidates, CelfK, CelfTrials)
  def opRunsCelf: Boolean = true
}

object SparkFanout {
  /** The step curve and the number of activation rows, from two aggregates. */
  def curveOf(activations: DataFrame, trials: Int): (Seq[(Int, Double)], Long) = {
    val curve = MonteCarlo.stepCurve(activations, trials).collect().map((r: Row) => (r.getInt(0), r.getDouble(1))).toSeq
    val rows = MonteCarlo.activationCounts(activations).collect().map(_.getLong(1)).sum
    (curve, rows)
  }
}
