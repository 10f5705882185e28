package repro.perfbench

import scala.collection.mutable.ArrayBuffer
import repro.baselines.{BoxedFrontier, FullScan}
import repro.core.{CsrGraph, IcSimulator, IndependentCascade, LinearThreshold, LtSimulator, Rng}
import repro.im.{BoxedEstimator, Celf, CsrEstimator, FullScanEstimator}
import repro.spark.MonteCarlo

/** Layer measurements of the traced run, made from outside each module by
  * timing calls into its public functions on the workload's own graph and
  * seed set. Every workload runs the same probes, so every layer metric
  * exists on every workload; the loop's own spans supply the im layer.
  */
final class Probes(w: Workload, ctx: Ctx) {
  /** Layer metrics in output order: (name, unit, value). */
  val layers = ArrayBuffer.empty[(String, String, Double)]
  /** Extra report lines: tails and workload-specific baselines. */
  val report = ArrayBuffer.empty[Reported]
  /** Checks made by the probes: (name, passed). */
  val checks = ArrayBuffer.empty[(String, Boolean)]

  private def layer(name: String, unit: String, v: Double): Unit = layers += ((name, unit, v))
  private val seed = ctx.rngSeed
  private val g = w.primary
  private val seeds = w.probeSeeds

  def runAll(): Unit = {
    Main.phase("probe core")
    val icNs = core()
    Main.phase("probe baselines")
    baselines(icNs)
    Main.phase("probe celf")
    celf()
    Main.phase("probe spark")
    spark(icNs)
  }

  /** RNG draws, IC/LT trials and the step-recording simulate. Returns the
    * per-trial IC times, which the baseline ratios and the Spark sizes use.
    */
  private def core(): IndexedSeq[Double] = {
    val coinSums = ArrayBuffer.empty[Double]
    val coinNs = Probes.sample(5, 1000, 0.3)(p => coinSums += Probes.coinPass(g, seed, p.toLong))
    checks += "core.rng_coin_checksum_repeats" -> (Probes.coinPass(g, seed, 0L) == coinSums.head)
    layer("core.rng_coin_ns", "ns", Stats.median(coinNs) / g.m)
    val thrSums = ArrayBuffer.empty[Double]
    val thrNs = Probes.sample(5, 1000, 0.3)(p => thrSums += Probes.thresholdPass(g, seed, p.toLong))
    checks += "core.rng_threshold_checksum_repeats" -> (Probes.thresholdPass(g, seed, 0L) == thrSums.head)
    layer("core.rng_threshold_ns", "ns", Stats.median(thrNs) / g.m)

    val ic = new IcSimulator(g, seed)
    val lt = new LtSimulator(w.ltGraph, seed)
    val icCounts, ltCounts = ArrayBuffer.empty[Int]
    (0 until 100).foreach { t => ic.activatedCount(seeds, Probes.WarmTrial + t); lt.activatedCount(seeds, Probes.WarmTrial + t) }
    val icNs = ctx.tracer.span("core.ic_trials")(Probes.sample(1000, 20000, 1.0)(t => icCounts += ic.activatedCount(seeds, t.toLong)))
    val ltNs = ctx.tracer.span("core.lt_trials")(Probes.sample(1000, 20000, 1.0)(t => ltCounts += lt.activatedCount(seeds, t.toLong)))
    for ((model, ns) <- Seq("ic" -> icNs, "lt" -> ltNs); p <- Seq(50.0, 99.0))
      layer(s"core.${model}_trial_us.p${p.toInt}", "us", Stats.percentile(ns, p) / 1e3)

    // Exact work counts, outside the timed region: Σ out-degree over the
    // activated set of the step-recording simulators, for the first trials.
    val e = math.min(300, math.min(icNs.size, ltNs.size))
    val icRuns = (0 until e).map(t => IndependentCascade.simulate(g, seeds, t.toLong, seed))
    val ltRuns = (0 until e).map(t => LinearThreshold.simulate(w.ltGraph, seeds, t.toLong, seed))
    checks += "core.ic_simulate_equals_simulator" -> icRuns.indices.forall(t => icRuns(t).totalActivated == icCounts(t))
    checks += "core.lt_simulate_equals_simulator" -> ltRuns.indices.forall(t => ltRuns(t).totalActivated == ltCounts(t))
    val icEdges = icRuns.map(r => Probes.edgesScanned(g, r.activationStep))
    val ltEdges = ltRuns.map(r => Probes.edgesScanned(w.ltGraph, r.activationStep))
    layer("core.ic_edges_per_trial", "count", icEdges.sum.toDouble / e)
    layer("core.lt_edges_per_trial", "count", ltEdges.sum.toDouble / e)
    layer("core.activated_per_trial", "count", icCounts.sum.toDouble / icCounts.size)
    layer("core.ic_ns_per_edge", "ns", icNs.take(e).sum / icEdges.sum)
    layer("core.lt_ns_per_edge", "ns", ltNs.take(e).sum / ltEdges.sum)

    val simNs = ctx.tracer.span("core.simulate")(
      Probes.sample(200, 5000, 0.5)(t => IndependentCascade.simulate(g, seeds, t.toLong, seed)))
    layer("core.simulate_us.p50", "us", Stats.median(simNs) / 1e3)
    report += Reported.of("core.ic_trial_us", "us", icNs.map(_ / 1e3))
    report += Reported.of("core.lt_trial_us", "us", ltNs.map(_ / 1e3))
    report += Reported.of("core.simulate_us", "us", simNs.map(_ / 1e3))
    layer("core.graph_bytes", "bytes", w.csrGraphs.map(x => 4.0 * (x.n + 1) + 12.0 * x.m).sum)
    icNs
  }

  /** The paper's ladder on the same trials: boxed frontier and full scan. */
  private def baselines(icNs: IndexedSeq[Double]): Unit = {
    val triples = g.edgeTriples
    val boxedAdj = BoxedFrontier.buildAdjacency(triples)
    val scanAdj = FullScan.buildAdjacency(triples)
    val s = seeds.toSeq
    val ic = new IcSimulator(g, seed)
    var mismatches = 0
    val boxedNs = ctx.tracer.span("baselines.boxed_ic_trials")(Probes.sample(10, 1000, 0.5) { t =>
      if (BoxedFrontier.activatedCountIC(boxedAdj, s, t.toLong, seed) != ic.activatedCount(seeds, t.toLong)) mismatches += 1
    })
    val scanNs = ctx.tracer.span("baselines.fullscan_ic_trials")(Probes.sample(5, 1000, 0.5) { t =>
      if (FullScan.activatedCountIC(g.n, scanAdj, s, t.toLong, seed) != ic.activatedCount(seeds, t.toLong)) mismatches += 1
    })
    checks += "baselines.ic_counts_equal_csr" -> (mismatches == 0)
    layer("baselines.boxed_ic_trial_us", "us", Stats.median(boxedNs) / 1e3)
    layer("baselines.fullscan_ic_trial_us", "us", Stats.median(scanNs) / 1e3)
    layer("ladder.boxed_over_csr", "ratio", Stats.median(boxedNs) / Stats.median(icNs.take(boxedNs.size)))
    layer("ladder.fullscan_over_csr", "ratio", Stats.median(scanNs) / Stats.median(icNs.take(scanNs.size)))
  }

  /** The im layer from the CELF spans, and the CELF rungs of the ladder. */
  private def celf(): Unit = {
    val spec = w.celf
    val csr = new CsrEstimator(spec.graph, spec.trials, seed)
    val csrResult =
      if (w.opRunsCelf) Celf.run(csr.sigma, spec.candidates, spec.k)
      else ctx.tracer.span("probe")(ctx.tracer.span("im.celf")(
        Celf.run(v => ctx.tracer.span("im.sigma_eval")(csr.sigma(v)), spec.candidates, spec.k)))
    val im = Probes.celfLayers(ctx.tracer, spec.candidates.size, spec.k)
    layer("im.sigma_eval_us.p50", "us", im.sigmaEvalUs.median)
    layer("im.sigma_evals", "count", im.evals)
    layer("im.celf_round0_s", "s", im.round0S)
    layer("im.celf_lazy_s", "s", im.lazyS)
    layer("im.celf_lazy_evals", "count", im.lazyEvals)
    layer("im.celf_lazy_hit_rate", "ratio", im.hitRate)
    layer("im.celf_self_s", "s", im.selfS)
    report += Reported("im.sigma_eval_us", "us", im.sigmaEvalUs.median, im.sigmaEvalUs.n, im.sigmaEvalUs.tail)
    report += Reported.value("im.celf_lazy_hit_rate.base", "count", im.hitBase, im.groups)

    val triples = spec.graph.edgeTriples
    val t0 = System.nanoTime()
    val boxed = ctx.tracer.span("baselines.boxed_celf")(
      Celf.run(new BoxedEstimator(spec.graph.n, triples, spec.trials, seed).sigma, spec.candidates, spec.k))
    layer("baselines.boxed_celf_s", "s", (System.nanoTime() - t0) / 1e9)
    checks += "baselines.boxed_celf_seeds_equal_csr" -> (boxed.seeds == csrResult.seeds)
    val scan = new FullScanEstimator(spec.graph.n, triples, spec.trials, seed)
    val scanMs = spec.candidates.take(3).map { v =>
      val t1 = System.nanoTime()
      val sv = ctx.tracer.span("baselines.fullscan_sigma_eval")(scan.sigma(Seq(v)))
      val ms = (System.nanoTime() - t1) / 1e6
      (ms, sv == csr.sigma(Seq(v)))
    }
    checks += "baselines.fullscan_sigma_equals_csr" -> scanMs.forall(_._2)
    layer("baselines.fullscan_sigma_eval_ms", "ms", Stats.median(scanMs.map(_._1)))
  }

  /** Per-job overhead, trial throughput against the local engine, and the
    * long-form activations split from their aggregation.
    */
  private def spark(icNs: IndexedSeq[Double]): Unit = {
    val spark = ctx.spark
    val jobMs = (0 until 11).map { _ =>
      val t0 = System.nanoTime()
      ctx.tracer.span("spark.job")(MonteCarlo.influence(spark, g, seeds, ctx.cores, seed))
      (System.nanoTime() - t0) / 1e6
    }
    layer("spark.job_ms.p50", "ms", Stats.median(jobMs))

    // Sized from the measured trial time so the local run takes about 1 s.
    val trials = Probes.clamp(1e9 / Stats.median(icNs), 1000, 100000)
    val t0 = System.nanoTime()
    val sparkSigma = ctx.tracer.span("spark.sigma")(MonteCarlo.influence(spark, g, seeds, trials, seed))
    val sparkS = (System.nanoTime() - t0) / 1e9
    val t1 = System.nanoTime()
    val localSigma = new IcSimulator(g, seed).meanInfluence(seeds, trials)
    val localS = (System.nanoTime() - t1) / 1e9
    checks += "spark.sigma_equals_local" -> (sparkSigma == localSigma)
    layer("spark.trials_per_s", "1/s", trials / sparkS)
    layer("spark.parallel_efficiency", "ratio", localS / (ctx.cores * sparkS))
    report += Reported.value("spark.sigma_trials", "count", trials, 1)

    val curveTrials = Probes.clamp(5e8 / Stats.median(icNs), 100, 5000)
    val df = MonteCarlo.activations(spark, g, seeds, curveTrials, seed).persist()
    val t2 = System.nanoTime()
    val rows = ctx.tracer.span("spark.activations")(df.count())
    val t3 = System.nanoTime()
    val (curve, aggRows) = ctx.tracer.span("spark.aggregate")(SparkFanout.curveOf(df, curveTrials))
    val t4 = System.nanoTime()
    df.unpersist(blocking = true)
    checks += "spark.curve_ends_at_rows_over_trials" -> (curve.nonEmpty && curve.last._2 == rows.toDouble / curveTrials && aggRows == rows)
    layer("spark.activation_rows", "count", rows.toDouble)
    layer("spark.activations_s", "s", (t3 - t2) / 1e9)
    layer("spark.aggregate_s", "s", (t4 - t3) / 1e9)
  }
}

object Probes {
  /** Trial indices for warm-up, far from the measured ones. */
  val WarmTrial = 1L << 40

  /** Call `f(i)` for i = 0, 1, ... at least `min` times, then while under
    * `budgetS` seconds and `max` calls; the duration of each call in ns.
    */
  def sample(min: Int, max: Int, budgetS: Double)(f: Int => Unit): IndexedSeq[Double] = {
    val out = ArrayBuffer.empty[Double]
    val start = System.nanoTime()
    var i = 0
    while (i < min || (i < max && System.nanoTime() - start < budgetS * 1e9)) {
      val t0 = System.nanoTime()
      f(i)
      out += (System.nanoTime() - t0).toDouble
      i += 1
    }
    out.toIndexedSeq
  }

  def clamp(x: Double, lo: Int, hi: Int): Int = math.max(lo, math.min(hi, x.toInt))

  /** One IC coin per edge of `g`, in CSR order; the sum is the checksum. */
  def coinPass(g: CsrGraph, seed: Long, trial: Long): Double = {
    var sum = 0.0
    var u = 0
    while (u < g.n) {
      var j = g.offsets(u)
      val end = g.offsets(u + 1)
      while (j < end) { sum += Rng.coin(seed, trial, u, g.targets(j)); j += 1 }
      u += 1
    }
    sum
  }

  /** One LT threshold per edge target of `g` (the draw LT makes per push). */
  def thresholdPass(g: CsrGraph, seed: Long, trial: Long): Double = {
    var sum = 0.0
    var j = 0
    while (j < g.m) { sum += Rng.threshold(seed, trial, g.targets(j)); j += 1 }
    sum
  }

  /** Edges a frontier trial scans: Σ out-degree over the activated nodes. */
  def edgesScanned(g: CsrGraph, activationStep: Array[Int]): Long = {
    var sum = 0L
    var v = 0
    while (v < g.n) { if (activationStep(v) >= 0) sum += g.outDegree(v); v += 1 }
    sum
  }

  /** The im layer, per group of CELF calls (one traced operation, or the
    * probe): medians over groups of the per-group sums.
    */
  final case class CelfLayers(
      sigmaEvalUs: Stats.Summary, evals: Double, round0S: Double, lazyS: Double,
      lazyEvals: Double, hitRate: Double, hitBase: Double, selfS: Double, groups: Int)

  /** Derive the im layer from the `im.celf` spans and their `im.sigma_eval`
    * children. Round 0 of a call ends when its `candidates`-th σ̂ returns.
    */
  def celfLayers(tracer: Tracer, candidates: Int, k: Int): CelfLayers = {
    val spans = tracer.spans
    val children = spans.groupBy(_.parent)
    val calls = spans.filter(_.name == "im.celf").map { c =>
      val evals = children.getOrElse(c.id, Nil).filter(_.name == "im.sigma_eval").sortBy(_.start)
      val round0End = if (evals.size >= candidates) evals(candidates - 1).end else c.end
      (c.parent, evals.size.toDouble, (round0End - c.start) / 1e9, (c.end - round0End) / 1e9,
        math.max(0, evals.size - candidates).toDouble, Tracer.selfTime(c, children.getOrElse(c.id, Nil)) / 1e9)
    }
    require(calls.nonEmpty, "no traced CELF call")
    val groups = calls.groupBy(_._1).values.toSeq
    def med(f: Seq[(Int, Double, Double, Double, Double, Double)] => Double): Double = Stats.median(groups.map(f))
    val lazyEvals = med(_.map(_._5).sum)
    val base = med(gs => k.toDouble * gs.size + gs.map(_._5).sum)
    CelfLayers(
      sigmaEvalUs = Stats.summarize(tracer.durations("im.sigma_eval").map(_ * 1e6)),
      evals = med(_.map(_._2).sum),
      round0S = med(_.map(_._3).sum),
      lazyS = med(_.map(_._4).sum),
      lazyEvals = lazyEvals,
      hitRate = med(gs => k.toDouble * gs.size / (k.toDouble * gs.size + gs.map(_._5).sum)),
      hitBase = base,
      selfS = med(_.map(_._6).sum),
      groups = groups.size,
    )
  }
}
