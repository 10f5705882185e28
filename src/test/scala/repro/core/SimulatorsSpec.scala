package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import repro.baselines.BoxedFrontier
import repro.im.BoxedEstimator

/** Reusable-state simulators vs the boxed-frontier baseline. The marks,
  * which hold each node's activation step above a per-trial base, must never
  * leak state across trials or across changing seed sets — every test
  * interleaves calls to provoke staleness.
  */
class SimulatorsSpec extends AnyFunSuite with PropHelpers {

  private def randomGraph(rnd: scala.util.Random, n: Int, m: Int): CsrGraph =
    CsrGraph.fromTriples(n, Seq.fill(m)((rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble()))
      .filter(e => e._1 != e._2))

  private def randomLtGraph(rnd: scala.util.Random, n: Int, m: Int): CsrGraph = {
    val raw = Seq.fill(m)((rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble()))
      .filter(e => e._1 != e._2)
    val sums = raw.groupBy(_._2).map { case (v, es) => v -> es.map(_._3).sum }
    CsrGraph.fromTriples(n, raw.map { case (u, v, w) => (u, v, w / math.max(1.0, sums(v))) })
  }

  private def boxed(g: CsrGraph) = BoxedFrontier.buildAdjacency(g.edgeTriples)

  test("IcSimulator matches BoxedFrontier across sequential trials") {
    forAllRandom(iters = 40) { rnd =>
      val g = randomGraph(rnd, 3 + rnd.nextInt(25), rnd.nextInt(120))
      val adj = boxed(g)
      val seeds = Array.fill(1 + rnd.nextInt(3))(rnd.nextInt(g.n))
      val sim = new IcSimulator(g, 7)
      (0 until 20).foreach { t =>
        assert(sim.activatedCount(seeds, t.toLong) ==
          BoxedFrontier.activatedCountIC(adj, seeds.toSeq, t.toLong, 7), s"trial $t")
      }
    }
  }

  test("LtSimulator matches BoxedFrontier across sequential trials") {
    forAllRandom(iters = 40) { rnd =>
      val g = randomLtGraph(rnd, 3 + rnd.nextInt(25), rnd.nextInt(120))
      val adj = boxed(g)
      val seeds = Array.fill(1 + rnd.nextInt(3))(rnd.nextInt(g.n))
      val sim = new LtSimulator(g, 7)
      (0 until 20).foreach { t =>
        assert(sim.activatedCount(seeds, t.toLong) ==
          BoxedFrontier.activatedCountLT(adj, seeds.toSeq, t.toLong, 7), s"trial $t")
      }
    }
  }

  test("LtSimulator matches BoxedFrontier on a hub pushed over several steps") {
    // Chain 0 → 1 → … → k with unit weights activates one node per step;
    // every chain node also pushes 1/(k+1) into hub h, so h crosses its
    // threshold θ_h only after ⌈θ_h·(k+1)⌉ pushes, spread over as many steps.
    val k = 40
    val h = k + 1
    val chain = (0 until k).map(i => (i, i + 1, 1.0))
    val spokes = (0 to k).map(i => (i, h, 1.0 / (k + 1)))
    val g = CsrGraph.fromTriples(k + 2, chain ++ spokes)
    val adj = boxed(g)
    val sim = new LtSimulator(g, 23)
    val hubSteps = (0 until 50).map { t =>
      assert(sim.activatedCount(Array(0), t.toLong) ==
        BoxedFrontier.activatedCountLT(adj, Seq(0), t.toLong, 23), s"trial $t")
      BoxedFrontier.simulateLT(g.n, adj, Seq(0), t.toLong, 23).activationStep(h)
    }
    assert(hubSteps.count(_ > 1) > 40, s"hub must usually need several pushes: $hubSteps")
  }

  test("LtSimulator: a mark set at step n-1 never reads as pushed next trial") {
    // Path 0 → 1 → … → x with unit weights and a last edge of 0.5: a trial
    // whose θ_x <= 0.5 activates x at step n - 1, the largest mark a trial
    // can leave. The next trial (`base` raised by n + 1) seeds x's
    // in-neighbour and draws θ_x > 0.5, so x must stay inactive; were that
    // old mark equal to the new `base - 1`, the stale acc (0.5) and θ_x
    // would be reused and x would activate.
    val n = 6
    val x = n - 1
    val g = CsrGraph.fromTriples(n, (0 until x).map(i => (i, i + 1, if (i + 1 == x) 0.5 else 1.0)))
    val adj = boxed(g)
    val sim = new LtSimulator(g, 5)
    val tA = Iterator.from(0).find(t => Rng.threshold(5, t, x) <= 0.5).get.toLong
    val tB = Iterator.from(0).find(t => Rng.threshold(5, t, x) > 0.5).get.toLong
    val a = sim.simulate(Array(0), tA)
    val b = sim.simulate(Array(x - 1), tB)
    assert(a.activationStep(x) == n - 1 && b.activationStep(x) == -1)
    assert(a.activationStep.toSeq == BoxedFrontier.simulateLT(n, adj, Seq(0), tA, 5).activationStep.toSeq)
    assert(b.activationStep.toSeq == BoxedFrontier.simulateLT(n, adj, Seq(x - 1), tB, 5).activationStep.toSeq)
  }

  test("IcSimulator is immune to stale state when seed sets change between calls") {
    forAllRandom(iters = 40) { rnd =>
      val g = randomGraph(rnd, 5 + rnd.nextInt(20), rnd.nextInt(120))
      val adj = boxed(g)
      val sim = new IcSimulator(g, 11)
      (0 until 15).foreach { i =>
        val seeds = Array.fill(1 + rnd.nextInt(4))(rnd.nextInt(g.n))
        val t = rnd.nextInt(8).toLong // deliberately repeat trial indices
        assert(sim.activatedCount(seeds, t) ==
          BoxedFrontier.activatedCountIC(adj, seeds.toSeq, t, 11), s"call $i")
      }
    }
  }

  test("LtSimulator is immune to stale accumulator state across calls") {
    forAllRandom(iters = 40) { rnd =>
      val g = randomLtGraph(rnd, 5 + rnd.nextInt(20), rnd.nextInt(120))
      val adj = boxed(g)
      val sim = new LtSimulator(g, 13)
      (0 until 15).foreach { i =>
        val seeds = Array.fill(1 + rnd.nextInt(4))(rnd.nextInt(g.n))
        val t = rnd.nextInt(8).toLong
        assert(sim.activatedCount(seeds, t) ==
          BoxedFrontier.activatedCountLT(adj, seeds.toSeq, t, 13), s"call $i")
      }
    }
  }

  /** One simulator instance interleaves `simulate` and `activatedCount` with
    * changing seed sets and repeated trial indices; every `simulate` must
    * match the boxed baseline step for step, so a stale mark from an earlier
    * call would show as a wrong step or a missed activation.
    */
  private def interleaved(model: Model, graph: scala.util.Random => CsrGraph): Unit =
    forAllRandom(iters = 40) { rnd =>
      val g = graph(rnd)
      val adj = boxed(g)
      val sim = model.simulator(g, 29)
      (0 until 20).foreach { i =>
        val seeds = Array.fill(rnd.nextInt(4))(rnd.nextInt(g.n))
        val t = rnd.nextInt(6).toLong
        val expected = model match {
          case IndependentCascade => BoxedFrontier.simulateIC(g.n, adj, seeds.toSeq, t, 29)
          case LinearThreshold => BoxedFrontier.simulateLT(g.n, adj, seeds.toSeq, t, 29)
        }
        if (rnd.nextBoolean()) {
          val r = sim.simulate(seeds, t)
          assert(r.activationStep.toSeq == expected.activationStep.toSeq, s"call $i")
          assert(r.newPerStep.toSeq == expected.newPerStep.toSeq, s"call $i")
        } else assert(sim.activatedCount(seeds, t) == expected.totalActivated, s"call $i")
      }
    }

  test("IcSimulator interleaving simulate and activatedCount matches BoxedFrontier") {
    interleaved(IndependentCascade, rnd => randomGraph(rnd, 2 + rnd.nextInt(25), rnd.nextInt(120)))
  }

  test("LtSimulator interleaving simulate and activatedCount matches BoxedFrontier") {
    interleaved(LinearThreshold, rnd => randomLtGraph(rnd, 2 + rnd.nextInt(25), rnd.nextInt(120)))
  }

  /** `IcSimulator`, which draws its coins from a key per CSR slot, equals the
    * boxed baseline, which hashes (u, v) per coin, on every seed over trials
    * 0-99.
    */
  private def keyedMatchesBoxed(g: CsrGraph): Unit = {
    val adj = boxed(g)
    val sim = new IcSimulator(g, 31)
    for (s <- 0 until g.n; t <- 0 until 100)
      assert(sim.activatedCount(Array(s), t.toLong) ==
        BoxedFrontier.activatedCountIC(adj, Seq(s), t.toLong, 31), s"seed $s, trial $t")
  }

  test("IcSimulator's edge keys: a graph with no edges") {
    keyedMatchesBoxed(CsrGraph.fromTriples(4, Seq.empty))
  }

  test("IcSimulator's edge keys: a middle node with no out-edges") {
    keyedMatchesBoxed(CsrGraph.fromTriples(5, Seq((0, 1, 0.6), (0, 2, 0.4), (2, 3, 0.7), (3, 4, 0.5), (4, 0, 0.3))))
  }

  test("IcSimulator's edge keys: the last node's row is not empty") {
    keyedMatchesBoxed(CsrGraph.fromTriples(4, Seq((0, 1, 0.5), (1, 2, 0.5), (3, 0, 0.6), (3, 1, 0.4), (3, 2, 0.7))))
  }

  test("IcSimulator's edge keys: a row longer than 64 edges") {
    // Hub 0 reaches 80 leaves, and every leaf points back at it.
    val leaves = 1 to 80
    keyedMatchesBoxed(CsrGraph.fromTriples(81,
      leaves.map(v => (0, v, 0.05 + v / 100.0)) ++ leaves.map(v => (v, 0, 0.3))))
  }

  test("IcSimulators built on one fresh graph by 4 threads at once share its key table") {
    val rnd = new scala.util.Random(1922)
    val g = randomGraph(rnd, 2000, 20000)
    val adj = boxed(g)
    val seeds = Array(0, 1, 2)
    val start = new java.util.concurrent.CountDownLatch(1)
    val pool = java.util.concurrent.Executors.newFixedThreadPool(4)
    try {
      val built = (0 until 4).map { _ =>
        pool.submit(new java.util.concurrent.Callable[IcSimulator] {
          def call(): IcSimulator = { start.await(); new IcSimulator(g, 13) }
        })
      }
      start.countDown()
      val sims = built.map(_.get(60, java.util.concurrent.TimeUnit.SECONDS))
      assert(sims.forall(_.keys eq g.topology.edgeKeys))
      for (sim <- sims; t <- 0 until 20)
        assert(sim.activatedCount(seeds, t.toLong) == BoxedFrontier.activatedCountIC(adj, seeds.toSeq, t.toLong, 13), s"trial $t")
    } finally pool.shutdownNow()
  }

  test("repeating the same trial on one simulator instance is idempotent") {
    val rnd = new scala.util.Random(3)
    val g = randomGraph(rnd, 30, 150)
    val sim = new IcSimulator(g, 17)
    val seeds = Array(0, 5)
    val first = sim.activatedCount(seeds, 4)
    (0 until 10).foreach(_ => assert(sim.activatedCount(seeds, 4) == first))
  }

  test("IcSimulator.meanInfluence and total equal the boxed estimator's") {
    val rnd = new scala.util.Random(9)
    val g = randomGraph(rnd, 40, 200)
    val seeds = Array(1, 2)
    val sim = new IcSimulator(g, 19)
    val boxed = new BoxedEstimator(g.n, g.edgeTriples, 50, 19)
    assert(sim.meanInfluence(seeds, 50) == boxed.sigma(seeds.toSeq))
    assert(sim.total(seeds, 50) == boxed.total(seeds.toSeq))
  }

  test("LtSimulator.meanInfluence and total equal the boxed estimator's") {
    val rnd = new scala.util.Random(9)
    val g = randomLtGraph(rnd, 40, 200)
    val seeds = Array(1, 2)
    val sim = new LtSimulator(g, 19)
    val boxed = new BoxedEstimator(g.n, g.edgeTriples, 50, 19, LinearThreshold)
    assert(sim.meanInfluence(seeds, 50) == boxed.sigma(seeds.toSeq))
    assert(sim.total(seeds, 50) == boxed.total(seeds.toSeq))
  }

  test("meanInfluence rejects non-positive trials") {
    val g = CsrGraph.fromTriples(2, Seq((0, 1, 0.5)))
    assertThrows[IllegalArgumentException](new IcSimulator(g, 1).meanInfluence(Array(0), 0))
    assertThrows[IllegalArgumentException](new LtSimulator(g, 1).meanInfluence(Array(0), 0))
  }

  test("duplicate seeds are deduplicated by both simulators") {
    val g = CsrGraph.fromTriples(3, Seq((0, 1, 0.0)))
    assert(new IcSimulator(g, 1).activatedCount(Array(0, 0, 0), 0) == 1)
    assert(new LtSimulator(g, 1).activatedCount(Array(0, 0, 0), 0) == 1)
  }

  test("empty seed set activates nothing on either simulator") {
    val g = CsrGraph.fromTriples(3, Seq((0, 1, 1.0)))
    assert(new IcSimulator(g, 1).activatedCount(Array.empty, 0) == 0)
    assert(new LtSimulator(g, 1).activatedCount(Array.empty, 0) == 0)
  }
}
