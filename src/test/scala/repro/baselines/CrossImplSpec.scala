package repro.baselines

import repro.{PropHelpers, SparkSpec}
import repro.core.{CsrGraph, IndependentCascade, LinearThreshold, Model, SimResult}
import repro.graph.{Generators, GraphOps}
import repro.im.{BoxedEstimator, CsrEstimator, FullScanEstimator, SparkEstimator}
import repro.spark.MonteCarlo
import repro.weights.EdgeWeights

/** The reproduction's backbone: all three implementation rungs of the
  * paper's ladder (CSR engine, boxed-frontier "pure Python", full-scan
  * "NDlib") observe the same counter-based random worlds, so they must
  * produce *bit-identical* cascades — activated sets AND activation steps —
  * on every graph, edge-weight model, seed set, and trial.
  *
  * Tests are generated per (graph × EWM × model) cell; each cell checks
  * multiple trials and seed sets.
  */
class CrossImplSpec extends SparkSpec with PropHelpers {

  /** (name, n, undirected edges) — small versions of the paper's graphs. */
  private lazy val graphs = Seq(
    ("ER", 120, Generators.erdosRenyi(spark, 120, 0.05, seed = 41)),
    ("WS", 120, Generators.wattsStrogatz(spark, 120, 6, 0.15, seed = 42)),
    ("CL", 150, Generators.chungLuPowerLaw(spark, 150, 500, 0.66, seed = 43)),
    ("REG", 100, Generators.randomRegular(spark, 100, 7, seed = 44)),
  )

  private def cell(n: Int, undirected: org.apache.spark.sql.DataFrame, ewm: String) = {
    val directed = GraphOps.symmetrize(undirected)
    val weighted =
      if (ewm == "WC") EdgeWeights.weightedCascade(directed)
      else EdgeWeights.normalizeForLT(EdgeWeights(ewm, directed, seed = 51))
    val triples = GraphOps.toTriples(weighted)
    (CsrGraph.fromTriples(n, triples),
      BoxedFrontier.buildAdjacency(triples),
      FullScan.buildAdjacency(triples),
      triples)
  }

  private val rngSeed = 97L

  for ((gName, n, undirectedLazy) <- graphs; ewm <- EdgeWeights.All) {

    test(s"IC: CSR == boxed-frontier == full-scan on $gName/$ewm (5 trials, 2 seed sets)") {
      val (g, boxed, scan, _) = cell(n, undirectedLazy, ewm)
      for {
        seeds <- Seq(Array(0), Array(1, 7, 13))
        trial <- 0 until 5
      } {
        val a = IndependentCascade.simulate(g, seeds, trial.toLong, rngSeed)
        val b = BoxedFrontier.simulateIC(n, boxed, seeds.toSeq, trial.toLong, rngSeed)
        val c = FullScan.simulateIC(n, scan, seeds.toSeq, trial.toLong, rngSeed)
        assert(a.activationStep.toSeq == b.activationStep.toSeq,
          s"CSR vs boxed mismatch at trial $trial seeds ${seeds.mkString(",")}")
        assert(a.activationStep.toSeq == c.activationStep.toSeq,
          s"CSR vs full-scan mismatch at trial $trial seeds ${seeds.mkString(",")}")
      }
    }

    test(s"LT: CSR == boxed-frontier == full-scan on $gName/$ewm (5 trials, 2 seed sets)") {
      val (g, boxed, scan, _) = cell(n, undirectedLazy, ewm)
      for {
        seeds <- Seq(Array(0), Array(2, 5, 11))
        trial <- 0 until 5
      } {
        val a = LinearThreshold.simulate(g, seeds, trial.toLong, rngSeed)
        val b = BoxedFrontier.simulateLT(n, boxed, seeds.toSeq, trial.toLong, rngSeed)
        val c = FullScan.simulateLT(n, scan, seeds.toSeq, trial.toLong, rngSeed)
        assert(a.activationStep.toSeq == b.activationStep.toSeq,
          s"CSR vs boxed mismatch at trial $trial")
        assert(a.activationStep.toSeq == c.activationStep.toSeq,
          s"CSR vs full-scan mismatch at trial $trial")
      }
    }

    test(s"baseline count paths match their trace paths on $gName/$ewm") {
      val (g, boxed, scan, _) = cell(n, undirectedLazy, ewm)
      for (trial <- 0 until 5) {
        val seeds = Seq(0, 9)
        assert(BoxedFrontier.activatedCountIC(boxed, seeds, trial.toLong, rngSeed) ==
          BoxedFrontier.simulateIC(n, boxed, seeds, trial.toLong, rngSeed).totalActivated)
        assert(BoxedFrontier.activatedCountLT(boxed, seeds, trial.toLong, rngSeed) ==
          BoxedFrontier.simulateLT(n, boxed, seeds, trial.toLong, rngSeed).totalActivated)
        assert(FullScan.activatedCountIC(n, scan, seeds, trial.toLong, rngSeed) ==
          FullScan.simulateIC(n, scan, seeds, trial.toLong, rngSeed).totalActivated)
        assert(FullScan.activatedCountLT(n, scan, seeds, trial.toLong, rngSeed) ==
          FullScan.simulateLT(n, scan, seeds, trial.toLong, rngSeed).totalActivated)
      }
    }

    test(s"IC mean influence agrees across implementations on $gName/$ewm") {
      val (g, boxed, scan, _) = cell(n, undirectedLazy, ewm)
      val seeds = Array(0, 3)
      val trials = 30
      val csr = IndependentCascade.simulator(g, rngSeed).meanInfluence(seeds, trials)
      val boxedMean = (0 until trials)
        .map(t => BoxedFrontier.simulateIC(n, boxed, seeds.toSeq, t.toLong, rngSeed).totalActivated)
        .sum.toDouble / trials
      val scanMean = (0 until trials)
        .map(t => FullScan.simulateIC(n, scan, seeds.toSeq, t.toLong, rngSeed).totalActivated)
        .sum.toDouble / trials
      assert(csr == boxedMean && csr == scanMean)
    }
  }

  // Edge cases shared by all implementations --------------------------------

  test("all IC implementations agree on a graph with isolated nodes") {
    val triples = Seq((0, 1, 0.8), (1, 2, 0.8)) // nodes 3, 4 isolated
    val g = CsrGraph.fromTriples(5, triples)
    val boxed = BoxedFrontier.buildAdjacency(triples)
    val scan = FullScan.buildAdjacency(triples)
    (0 until 10).foreach { t =>
      val a = IndependentCascade.simulate(g, Array(0), t.toLong, 3)
      val b = BoxedFrontier.simulateIC(5, boxed, Seq(0), t.toLong, 3)
      val c = FullScan.simulateIC(5, scan, Seq(0), t.toLong, 3)
      assert(a.activationStep.toSeq == b.activationStep.toSeq)
      assert(a.activationStep.toSeq == c.activationStep.toSeq)
    }
  }

  test("all LT implementations agree on a diamond with competing paths") {
    // 0 → {1,2} → 3: node 3's accumulator may need both in-neighbors.
    val triples = Seq((0, 1, 0.9), (0, 2, 0.9), (1, 3, 0.5), (2, 3, 0.5))
    val g = CsrGraph.fromTriples(4, triples)
    val boxed = BoxedFrontier.buildAdjacency(triples)
    val scan = FullScan.buildAdjacency(triples)
    (0 until 20).foreach { t =>
      val a = LinearThreshold.simulate(g, Array(0), t.toLong, 5)
      val b = BoxedFrontier.simulateLT(4, boxed, Seq(0), t.toLong, 5)
      val c = FullScan.simulateLT(4, scan, Seq(0), t.toLong, 5)
      assert(a.activationStep.toSeq == b.activationStep.toSeq, s"trial $t")
      assert(a.activationStep.toSeq == c.activationStep.toSeq, s"trial $t")
    }
  }

  test("all IC implementations agree when the seed set is the whole graph") {
    val triples = Seq((0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5))
    val g = CsrGraph.fromTriples(3, triples)
    val boxed = BoxedFrontier.buildAdjacency(triples)
    val scan = FullScan.buildAdjacency(triples)
    val all = Seq(0, 1, 2)
    val a = IndependentCascade.simulate(g, all.toArray, 0, 3)
    val b = BoxedFrontier.simulateIC(3, boxed, all, 0, 3)
    val c = FullScan.simulateIC(3, scan, all, 0, 3)
    assert(a.totalActivated == 3 && b.totalActivated == 3 && c.totalActivated == 3)
    assert(a.newPerStep.toSeq == Seq(3))
    assert(b.newPerStep.toSeq == Seq(3))
    assert(c.newPerStep.toSeq == Seq(3))
  }

  test("baseline adjacency builders preserve the edge multiset") {
    val triples = Seq((0, 1, 0.1), (0, 2, 0.2), (2, 1, 0.3))
    val boxed = BoxedFrontier.buildAdjacency(triples)
    val scan = FullScan.buildAdjacency(triples)
    assert(boxed(0).toSet == Set((1, 0.1), (2, 0.2)))
    assert(boxed(2).toSet == Set((1, 0.3)))
    assert(scan(0).toSet == Set((1, 0.1), (2, 0.2)))
    assert(scan(2).toSet == Set((1, 0.3)))
  }

  test("every entry point that knows n rejects a seed outside [0, n), naming it") {
    val n = 3
    val triples = Seq((0, 1, 1.0), (1, 2, 1.0))
    val g = CsrGraph.fromTriples(n, triples)
    val boxed = BoxedFrontier.buildAdjacency(triples)
    val scan = FullScan.buildAdjacency(triples)
    for (bad <- Seq(-1, n); (name, model) <- Seq(("IC", IndependentCascade), ("LT", LinearThreshold))) {
      val seeds = Array(0, bad)
      val ic = model == IndependentCascade
      val entryPoints = Seq[(String, () => Any)](
        "CSR simulate" -> (() => model.simulate(g, seeds, 0, rngSeed)),
        "CSR activatedCount" -> (() => model.simulator(g, rngSeed).activatedCount(seeds, 0)),
        "CSR meanInfluence" -> (() => model.simulator(g, rngSeed).meanInfluence(seeds, 2)),
        "boxed simulate" -> (() =>
          if (ic) BoxedFrontier.simulateIC(n, boxed, seeds.toSeq, 0, rngSeed)
          else BoxedFrontier.simulateLT(n, boxed, seeds.toSeq, 0, rngSeed)),
        "full-scan simulate" -> (() =>
          if (ic) FullScan.simulateIC(n, scan, seeds.toSeq, 0, rngSeed)
          else FullScan.simulateLT(n, scan, seeds.toSeq, 0, rngSeed)),
        "full-scan activatedCount" -> (() =>
          if (ic) FullScan.activatedCountIC(n, scan, seeds.toSeq, 0, rngSeed)
          else FullScan.activatedCountLT(n, scan, seeds.toSeq, 0, rngSeed)),
        "CsrEstimator" -> (() => new CsrEstimator(g, 2, rngSeed, model).sigma(seeds.toSeq)),
        "BoxedEstimator" -> (() => new BoxedEstimator(n, triples, 2, rngSeed, model).sigma(seeds.toSeq)),
        "FullScanEstimator" -> (() => new FullScanEstimator(n, triples, 2, rngSeed, model).sigma(seeds.toSeq)),
        "SparkEstimator" -> (() => new SparkEstimator(spark, g, 2, rngSeed, model).sigma(seeds.toSeq)),
        "MonteCarlo.activations" -> (() => MonteCarlo.activations(spark, g, seeds, 2, rngSeed, model)),
        "MonteCarlo.total" -> (() => MonteCarlo.total(spark, g, seeds, 2, rngSeed, model)),
      )
      for ((entry, run) <- entryPoints) withClue(s"$name $entry, seed $bad: ") {
        val e = intercept[IllegalArgumentException](run())
        assert(e.getMessage == s"seed $bad is outside [0, $n)")
      }
    }
  }

  /** Each rung's one-trial `(simulate, activatedCount)` for `model`, CSR first. */
  private def rungs(model: Model, n: Int, triples: Seq[(Int, Int, Double)], seed: Long)
      : Seq[(String, (Array[Int], Long) => (SimResult, Int))] = {
    val sim = model.simulator(CsrGraph.fromTriples(n, triples), seed)
    val boxed = BoxedFrontier.buildAdjacency(triples)
    val scan = FullScan.buildAdjacency(triples)
    val ic = model == IndependentCascade
    Seq(
      ("csr", (s: Array[Int], t: Long) => (sim.simulate(s, t), sim.activatedCount(s, t))),
      ("boxed", (s: Array[Int], t: Long) =>
        if (ic) (BoxedFrontier.simulateIC(n, boxed, s.toSeq, t, seed), BoxedFrontier.activatedCountIC(boxed, s.toSeq, t, seed))
        else (BoxedFrontier.simulateLT(n, boxed, s.toSeq, t, seed), BoxedFrontier.activatedCountLT(boxed, s.toSeq, t, seed))),
      ("full-scan", (s: Array[Int], t: Long) =>
        if (ic) (FullScan.simulateIC(n, scan, s.toSeq, t, seed), FullScan.activatedCountIC(n, scan, s.toSeq, t, seed))
        else (FullScan.simulateLT(n, scan, s.toSeq, t, seed), FullScan.activatedCountLT(n, scan, s.toSeq, t, seed))),
    )
  }

  for ((name, model, triples) <- Seq(
      ("IC", IndependentCascade, Seq((0, 1, 0.1), (0, 1, 0.9), (1, 2, 0.5))),
      ("LT", LinearThreshold, Seq((0, 2, 0.3), (0, 2, 0.6), (1, 2, 0.4))),
    )) {
    test(s"$name: every rung keeps the first of duplicate (src, dst) edges, as the CSR builder does") {
      val (_, csr) +: others = rungs(model, 3, triples, rngSeed)
      for ((rung, run) <- others; t <- 0L until 50L)
        assert(run(Array(0), t)._1.activationStep.toSeq == csr(Array(0), t)._1.activationStep.toSeq,
          s"CSR vs $rung mismatch at trial $t")
    }
  }

  test("all rungs agree on SimResult and count on random edge-case graphs") {
    var sawSelfLoop, sawDuplicate, sawIsolated, sawZero, sawOne = false
    forAllRandom(iters = 150) { rnd =>
      val n = 1 + rnd.nextInt(30)
      def weight(): Double = rnd.nextInt(4) match {
        case 0 => 0.0
        case 1 => 1.0
        case _ => rnd.nextDouble()
      }
      val base = Seq.fill(rnd.nextInt(3 * n + 1))((rnd.nextInt(n), rnd.nextInt(n), weight()))
      val dups = base.filter(_ => rnd.nextInt(3) == 0).map { case (u, v, _) => (u, v, weight()) }
      val loops = Seq.fill(rnd.nextInt(3))(rnd.nextInt(n)).map(v => (v, v, weight()))
      val ic = rnd.shuffle(base ++ dups ++ loops)
      // LT: scale by the in-sum of the edges the builders keep, so it is <= 1.
      val sums = CsrGraph.fromTriples(n, ic).inWeightSums
      val lt = ic.map { case (u, v, w) => (u, v, w / math.max(1.0, sums(v))) }
      val some = Array.fill(1 + rnd.nextInt(3))(rnd.nextInt(n))
      val seedSets = Seq(Array.empty[Int], some ++ some, Array.range(0, n))
      for ((name, model, triples) <- Seq(("IC", IndependentCascade, ic), ("LT", LinearThreshold, lt))) {
        val all = rungs(model, n, triples, rngSeed)
        for (seeds <- seedSets; t <- 0L until 3L) {
          val results = all.map { case (rung, run) => rung -> run(seeds, t) }
          val (_, (csr, _)) = results.head
          for ((rung, (r, count)) <- results) {
            val clue = s"$name $rung n=$n seeds=${seeds.mkString(",")} trial $t"
            assert(r.activationStep.toSeq == csr.activationStep.toSeq, clue)
            assert(r.newPerStep.toSeq == csr.newPerStep.toSeq, clue)
            assert(count == r.totalActivated, clue)
          }
          // newPerStep counts activationStep per step; no seed gives Array(0).
          val last = (0 +: csr.activationStep.toSeq).max
          assert(csr.newPerStep.toSeq == (0 to last).map(t => csr.activationStep.count(_ == t)))
        }
      }
      sawSelfLoop ||= ic.exists(e => e._1 == e._2)
      sawDuplicate ||= dups.nonEmpty
      sawIsolated ||= (0 until n).exists(v => !ic.exists(e => e._1 == v || e._2 == v))
      sawZero ||= ic.exists(_._3 == 0.0)
      sawOne ||= ic.exists(_._3 == 1.0)
    }
    assert(sawSelfLoop && sawDuplicate && sawIsolated && sawZero && sawOne)
  }
}
