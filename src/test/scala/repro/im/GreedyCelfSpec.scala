package repro.im

import repro.{PropHelpers, SparkSpec}
import repro.core.{CsrGraph, LinearThreshold}
import repro.experiments.Table2
import repro.graph.{Generators, GraphOps}
import repro.weights.EdgeWeights

/** Greedy vs CELF equivalence, estimator agreement, lazy-evaluation wins. */
class GreedyCelfSpec extends SparkSpec with PropHelpers {

  private val rngSeed = 101L
  private val trials = 60

  /** Small weighted test graph: (n, triples, CSR). */
  private def graph(ewm: String, n: Int = 80, p: Double = 0.06) = {
    val undirected = Generators.erdosRenyi(spark, n, p, seed = 91)
    val weighted = EdgeWeights(ewm, GraphOps.symmetrize(undirected), seed = 92)
    val triples = GraphOps.toTriples(weighted)
    (triples, CsrGraph.fromTriples(n, triples))
  }

  // ---- estimator agreement --------------------------------------------

  for (ewm <- EdgeWeights.All) {
    test(s"all σ̂ backends return identical values on $ewm weights") {
      val (triples, g) = graph(ewm)
      val backends: Seq[InfluenceEstimator] = Seq(
        new CsrEstimator(g, trials, rngSeed),
        new BoxedEstimator(g.n, triples, trials, rngSeed),
        new FullScanEstimator(g.n, triples, trials, rngSeed),
        new SparkEstimator(spark, g, trials, rngSeed),
      )
      for (seeds <- Seq(Seq(0), Seq(1, 2, 3), Seq(10, 40))) {
        val vals = backends.map(_.sigma(seeds))
        assert(vals.distinct.size == 1, s"seeds=$seeds vals=${backends.map(_.name).zip(vals)}")
      }
    }
  }

  test("LT estimators agree across backends too") {
    val (triples, g) = graph("WC")
    val a = new CsrEstimator(g, trials, rngSeed, model = LinearThreshold).sigma(Seq(0, 5))
    val b = new BoxedEstimator(g.n, triples, trials, rngSeed, model = LinearThreshold).sigma(Seq(0, 5))
    val c = new FullScanEstimator(g.n, triples, trials, rngSeed, model = LinearThreshold).sigma(Seq(0, 5))
    val d = new SparkEstimator(spark, g, trials, rngSeed, model = LinearThreshold).sigma(Seq(0, 5))
    assert(a == b && a == c && a == d)
  }

  test("σ̂ is monotone in the seed set (live-edge worlds)") {
    val (_, g) = graph("WC")
    val est = new CsrEstimator(g, trials, rngSeed)
    val s1 = est.sigma(Seq(0))
    val s2 = est.sigma(Seq(0, 1))
    val s3 = est.sigma(Seq(0, 1, 2))
    assert(s1 <= s2 && s2 <= s3)
  }

  test("σ̂ of k seeds is at least k and at most n") {
    val (_, g) = graph("TV")
    val est = new CsrEstimator(g, trials, rngSeed)
    val v = est.sigma(Seq(0, 1, 2, 3))
    assert(v >= 4.0 && v <= g.n)
  }

  test("σ̂ is submodular on sampled chains (live-edge coverage argument)") {
    val (_, g) = graph("WC")
    val est = new CsrEstimator(g, trials, rngSeed)
    // For S ⊆ T and v ∉ T: σ(S+v) − σ(S) ≥ σ(T+v) − σ(T).
    val rnd = new scala.util.Random(5)
    (0 until 20).foreach { _ =>
      val s = Seq(rnd.nextInt(g.n))
      val t = s :+ rnd.nextInt(g.n)
      val v = rnd.nextInt(g.n)
      if (!t.contains(v)) {
        val gainS = est.sigma(s :+ v) - est.sigma(s)
        val gainT = est.sigma(t :+ v) - est.sigma(t)
        assert(gainS >= gainT - 1e-9, s"submodularity violated at s=$s t=$t v=$v")
      }
    }
  }

  // ---- greedy ----------------------------------------------------------

  test("greedy on a 2-star graph picks the hubs first") {
    // hubs 0 and 5 each cover 4 leaves with certainty.
    val triples = (1 to 4).map(i => (0, i, 1.0)) ++ (6 to 9).map(i => (5, i, 1.0))
    val g = CsrGraph.fromTriples(10, triples)
    val est = new CsrEstimator(g, 10, rngSeed)
    val res = Greedy.run(est.sigma, 0 until 10, 2)
    assert(res.seeds.toSet == Set(0, 5))
    assert(res.sigmaValues.last == 10.0)
  }

  test("greedy evaluation count is k passes over shrinking candidates") {
    val (_, g) = graph("TV", n = 30, p = 0.1)
    val est = new CsrEstimator(g, 20, rngSeed)
    val res = Greedy.run(est.sigma, 0 until 30, 3)
    assert(res.evaluations == 30 + 29 + 28)
  }

  test("greedy sigma values are non-decreasing") {
    val (_, g) = graph("WC", n = 40)
    val est = new CsrEstimator(g, 30, rngSeed)
    val res = Greedy.run(est.sigma, 0 until 40, 5)
    res.sigmaValues.sliding(2).foreach(p => assert(p(0) <= p(1) + 1e-9))
  }

  test("greedy marginal gains are non-increasing (submodular σ̂)") {
    val (_, g) = graph("WC", n = 40)
    val est = new CsrEstimator(g, 30, rngSeed)
    val res = Greedy.run(est.sigma, 0 until 40, 5)
    val gains = (0.0 +: res.sigmaValues).sliding(2).map(p => p(1) - p(0)).toVector
    gains.sliding(2).foreach(p => assert(p(0) >= p(1) - 1e-9, s"gains $gains"))
  }

  test("greedy rejects invalid budgets") {
    val (_, g) = graph("TV", n = 10, p = 0.2)
    val est = new CsrEstimator(g, 10, rngSeed)
    assertThrows[IllegalArgumentException](Greedy.run(est.sigma, 0 until 10, 0))
    assertThrows[IllegalArgumentException](Greedy.run(est.sigma, 0 until 10, 11))
  }

  // ---- CELF ------------------------------------------------------------

  for (ewm <- EdgeWeights.All) {
    test(s"CELF == Greedy seed sets and σ̂ values on $ewm weights (IC, submodular)") {
      val (_, g) = graph(ewm, n = 50, p = 0.08)
      val est = new CsrEstimator(g, 40, rngSeed)
      val gr = Greedy.run(est.total, 0 until 50, 4)
      val ce = Celf.run(est.total, 0 until 50, 4)
      assert(ce.seeds == gr.seeds, s"CELF ${ce.seeds} vs greedy ${gr.seeds}")
      assert(ce.sigmaValues == gr.sigmaValues)
    }
  }

  /** Weighted coverage: the summed weight of the elements that the chosen
    * candidates' sets cover — monotone submodular, with exact integer gains.
    */
  private def coverage(weights: Seq[Long], sets: Seq[Set[Int]]): Seq[Int] => Long =
    seeds => seeds.flatMap(sets).distinct.map(weights).sum

  test("CELF and Greedy break an exact integer tie alike on a weighted coverage") {
    // After candidate 2, candidates 1 and 4 both gain exactly 1117; as
    // gains per 100 worlds in Double arithmetic, CELF picked (2, 4, 0).
    val f = coverage(Seq(1445, 1117, 1333, 2131, 2053), Seq(Set(4), Set(1), Set(2, 3, 4), Set(3), Set(1, 3, 4)))
    assert(Greedy.run(f, 0 until 5, 3).seeds == Vector(2, 1, 0))
    assert(Celf.run(f, 0 until 5, 3).seeds == Vector(2, 1, 0))
  }

  test("CELF == Greedy on 1,000 random weighted coverages (integer gains)") {
    forAllRandom(iters = 1000) { rnd =>
      val elements = 1 + rnd.nextInt(8)
      val maxWeight = if (rnd.nextBoolean()) 4 else 3000
      val weights = Seq.fill(elements)(rnd.nextInt(maxWeight).toLong)
      val n = 1 + rnd.nextInt(8)
      val sets = Seq.fill(n)(Set.fill(1 + rnd.nextInt(3))(rnd.nextInt(elements)))
      val k = 1 + rnd.nextInt(n)
      val ce = Celf.run(coverage(weights, sets), 0 until n, k)
      val gr = Greedy.run(coverage(weights, sets), 0 until n, k)
      assert(ce.seeds == gr.seeds && ce.sigmaValues == gr.sigmaValues,
        s"weights=$weights sets=$sets k=$k: CELF ${ce.seeds} vs greedy ${gr.seeds}")
    }
  }

  test("CELF == Greedy on integer totals over Table 2's TV graph at RNG seed 8") {
    // Over the Double σ̂, CELF's last two seeds were 4700, 407 here, while
    // Greedy's were 407, 3783: an exact tie broken the wrong way.
    val undirected = Generators.randomRegular(spark, Table2.N, Table2.Degree, seed = 21)
    val triples = GraphOps.toTriples(EdgeWeights("TV", GraphOps.symmetrize(undirected), seed = 31))
    val est = new CsrEstimator(CsrGraph.fromTriples(Table2.N, triples), 100, 8)
    val candidates = 0 until Table2.N
    val ce = Celf.run(est.total, candidates, Table2.K)
    val gr = Greedy.run(est.total, candidates, Table2.K)
    assert(ce.seeds == gr.seeds, s"CELF ${ce.seeds} vs greedy ${gr.seeds}")
  }

  test("CELF uses strictly fewer evaluations than greedy beyond round one") {
    val (_, g) = graph("WC", n = 60, p = 0.06)
    val est = new CsrEstimator(g, 40, rngSeed)
    val gr = Greedy.run(est.sigma, 0 until 60, 5)
    val ce = Celf.run(est.sigma, 0 until 60, 5)
    assert(ce.evaluations < gr.evaluations,
      s"CELF ${ce.evaluations} evals vs greedy ${gr.evaluations}")
    assert(ce.evaluations >= 60, "CELF must at least scan all candidates once")
  }

  test("CELF selects the exact hub set on the 2-star graph") {
    val triples = (1 to 4).map(i => (0, i, 1.0)) ++ (6 to 9).map(i => (5, i, 1.0))
    val g = CsrGraph.fromTriples(10, triples)
    val est = new CsrEstimator(g, 10, rngSeed)
    val res = Celf.run(est.sigma, 0 until 10, 2)
    assert(res.seeds.toSet == Set(0, 5))
    assert(res.completed)
  }

  test("CELF respects an expired time budget and reports DNF") {
    val (_, g) = graph("WC", n = 60, p = 0.06)
    val est = new CsrEstimator(g, 40, rngSeed)
    val res = Celf.run(est.sigma, 0 until 60, 5, timeBudgetMs = 0)
    assert(!res.completed)
    assert(res.seeds.size < 5)
  }

  test("CELF's round 0 scores each distinct candidate once, within the run's time") {
    val (_, g) = graph("WC", n = 60, p = 0.06)
    val est = new CsrEstimator(g, 40, rngSeed)
    val res = Celf.run(est.total, (0 until 60) ++ (0 until 10), 5)
    assert(res.completed)
    assert(res.round0Evaluations == 60)
    assert(res.round0Ms >= 0 && res.round0Ms <= res.elapsedMs)
    assert(res.evaluations > res.round0Evaluations)
  }

  test("CELF's budget expiring in round 0 counts every evaluation as round 0") {
    val (_, g) = graph("WC", n = 60, p = 0.06)
    val est = new CsrEstimator(g, 40, rngSeed)
    // Each σ̂ sleeps, so a 15 ms budget ends round 0 after a few candidates.
    val slow: Seq[Int] => Long = s => { Thread.sleep(5); est.total(s) }
    val res = Celf.run(slow, 0 until 60, 5, timeBudgetMs = 15)
    assert(!res.completed && res.seeds.isEmpty)
    assert(res.evaluations > 0 && res.evaluations < 60)
    assert(res.round0Evaluations == res.evaluations)
    assert(res.round0Ms == res.elapsedMs)
  }

  test("Greedy's round 0 is its first pass over the distinct candidates") {
    val (_, g) = graph("TV", n = 30, p = 0.1)
    val est = new CsrEstimator(g, 20, rngSeed)
    val res = Greedy.run(est.total, (0 until 30) ++ (0 until 5), 3)
    assert(res.round0Evaluations == 30)
    assert(res.evaluations == 30 + 29 + 28)
    assert(res.round0Ms >= 0 && res.round0Ms <= res.elapsedMs)
  }

  test("CELF completes within a generous budget") {
    val (_, g) = graph("TV", n = 30, p = 0.1)
    val est = new CsrEstimator(g, 20, rngSeed)
    val res = Celf.run(est.sigma, 0 until 30, 3, timeBudgetMs = 600000)
    assert(res.completed && res.seeds.size == 3)
  }

  test("CELF rejects invalid budgets") {
    val (_, g) = graph("TV", n = 10, p = 0.2)
    val est = new CsrEstimator(g, 10, rngSeed)
    assertThrows[IllegalArgumentException](Celf.run(est.sigma, 0 until 10, 0))
  }

  test("CELF sigma values are consistent with direct evaluation of its seeds") {
    val (_, g) = graph("UR", n = 40, p = 0.08)
    val est = new CsrEstimator(g, 30, rngSeed)
    val res = Celf.run(est.total, 0 until 40, 3)
    res.seeds.indices.foreach { i =>
      val direct = est.total(res.seeds.take(i + 1)).toDouble
      assert(res.sigmaValues(i) == direct,
        s"prefix ${i + 1}: reported ${res.sigmaValues(i)} direct $direct")
    }
  }

  test("estimators reject non-positive trial counts") {
    val (_, g) = graph("TV", n = 10, p = 0.2)
    assertThrows[IllegalArgumentException](new CsrEstimator(g, 0, rngSeed))
  }
}
