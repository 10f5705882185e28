package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import repro.baselines.BoxedFrontier

/** IC engine: analytic cases, live-edge coupling properties, invariants. */
class IndependentCascadeSpec extends AnyFunSuite with PropHelpers {

  /** Directed path 0→1→…→(n-1) with constant weight. */
  private def path(n: Int, w: Double): CsrGraph =
    CsrGraph.fromTriples(n, (0 until n - 1).map(i => (i, i + 1, w)))

  /** Star: hub 0 → leaves 1..n-1 with constant weight. */
  private def star(n: Int, w: Double): CsrGraph =
    CsrGraph.fromTriples(n, (1 until n).map(i => (0, i, w)))

  private def randomGraph(rnd: scala.util.Random, n: Int, m: Int): CsrGraph =
    CsrGraph.fromTriples(n, Seq.fill(m)((rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble()))
      .filter(e => e._1 != e._2))

  test("no seeds activates nothing") {
    val r = IndependentCascade.simulate(path(5, 1.0), Array.empty, 0, 1)
    assert(r.totalActivated == 0)
    assert(r.activatedSet.isEmpty)
  }

  test("seeds always activate at step 0") {
    val r = IndependentCascade.simulate(path(5, 0.0), Array(2, 4), 0, 1)
    assert(r.activationStep(2) == 0 && r.activationStep(4) == 0)
    assert(r.totalActivated == 2)
  }

  test("duplicate seeds are counted once") {
    val r = IndependentCascade.simulate(path(5, 0.0), Array(2, 2, 2), 0, 1)
    assert(r.totalActivated == 1)
    assert(r.newPerStep.toSeq == Seq(1))
  }

  test("weight 1.0 activates the full reachable set") {
    val r = IndependentCascade.simulate(path(6, 1.0), Array(0), 0, 1)
    assert(r.totalActivated == 6)
  }

  test("weight 1.0 on a path yields activation step = distance") {
    val r = IndependentCascade.simulate(path(6, 1.0), Array(0), 3, 99)
    assert(r.activationStep.toSeq == Seq(0, 1, 2, 3, 4, 5))
  }

  test("weight 0.0 activates only the seeds") {
    val r = IndependentCascade.simulate(star(10, 0.0), Array(0), 0, 1)
    assert(r.totalActivated == 1)
  }

  test("unreachable nodes stay inactive even with weight 1.0") {
    // 0→1, 2→3: seeding 0 can never reach 2 or 3.
    val g = CsrGraph.fromTriples(4, Seq((0, 1, 1.0), (2, 3, 1.0)))
    val r = IndependentCascade.simulate(g, Array(0), 0, 1)
    assert(r.activatedSet == Set(0, 1))
  }

  test("star with weight 1.0 activates all leaves at step 1") {
    val r = IndependentCascade.simulate(star(8, 1.0), Array(0), 0, 1)
    assert((1 until 8).forall(r.activationStep(_) == 1))
    assert(r.newPerStep.toSeq == Seq(1, 7))
  }

  test("single-edge activation frequency matches the edge probability") {
    val p = 0.3
    val g = CsrGraph.fromTriples(2, Seq((0, 1, p)))
    val trials = 20000
    val sim = IndependentCascade.simulator(g, 5)
    val hits = (0 until trials).count(t => sim.activatedCount(Array(0), t.toLong) == 2)
    assert(math.abs(hits.toDouble / trials - p) < 0.01, s"empirical ${hits.toDouble / trials}")
  }

  test("meanInfluence on a single edge is 1 + p") {
    val p = 0.4
    val g = CsrGraph.fromTriples(2, Seq((0, 1, p)))
    val sigma = IndependentCascade.simulator(g, 5).meanInfluence(Array(0), 20000)
    assert(math.abs(sigma - (1 + p)) < 0.02, s"sigma $sigma")
  }

  test("meanInfluence on a 2-path is 1 + p + p^2") {
    val p = 0.5
    val g = path(3, p)
    val sigma = IndependentCascade.simulator(g, 5).meanInfluence(Array(0), 40000)
    assert(math.abs(sigma - (1 + p + p * p)) < 0.02, s"sigma $sigma")
  }

  test("meanInfluence on a star is 1 + (n-1) p") {
    val p = 0.2
    val n = 11
    val sigma = IndependentCascade.simulator(star(n, p), 5).meanInfluence(Array(0), 20000)
    assert(math.abs(sigma - (1 + (n - 1) * p)) < 0.05, s"sigma $sigma")
  }

  test("activatedCount equals simulate.totalActivated on random graphs") {
    forAllRandom(iters = 100) { rnd =>
      val g = randomGraph(rnd, 2 + rnd.nextInt(20), rnd.nextInt(80))
      val seeds = Array.fill(1 + rnd.nextInt(3))(rnd.nextInt(g.n))
      val trial = rnd.nextInt(1000).toLong
      val expected = BoxedFrontier.simulateIC(g.n, BoxedFrontier.buildAdjacency(g.edgeTriples), seeds.toSeq, trial, 7)
      assert(IndependentCascade.simulator(g, 7).activatedCount(seeds, trial) == expected.totalActivated)
      assert(IndependentCascade.simulate(g, seeds, trial, 7).totalActivated == expected.totalActivated)
    }
  }

  test("newPerStep sums to totalActivated") {
    forAllRandom(iters = 50) { rnd =>
      val g = randomGraph(rnd, 2 + rnd.nextInt(20), rnd.nextInt(80))
      val r = IndependentCascade.simulate(g, Array(rnd.nextInt(g.n)), rnd.nextInt(50).toLong, 7)
      assert(r.newPerStep.sum == r.totalActivated)
      assert(r.activatedSet.size == r.totalActivated)
    }
  }

  test("activation steps are contiguous from 0") {
    forAllRandom(iters = 50) { rnd =>
      val g = randomGraph(rnd, 2 + rnd.nextInt(20), rnd.nextInt(100))
      val r = IndependentCascade.simulate(g, Array(rnd.nextInt(g.n)), rnd.nextInt(50).toLong, 7)
      val steps = r.activationStep.filter(_ >= 0)
      assert(steps.distinct.sorted.toSeq == (0 until r.newPerStep.length).toSeq)
    }
  }

  test("every non-seed activated node has an in-neighbor activated one step earlier (Observation 1)") {
    forAllRandom(iters = 50) { rnd =>
      val g = randomGraph(rnd, 2 + rnd.nextInt(25), rnd.nextInt(120))
      val seeds = Array(rnd.nextInt(g.n))
      val r = IndependentCascade.simulate(g, seeds, rnd.nextInt(50).toLong, 11)
      val incoming = g.edgeTriples.groupBy(_._2)
      r.activationStep.zipWithIndex.foreach { case (s, v) =>
        if (s > 0) {
          val pred = incoming.getOrElse(v, Nil).exists { case (u, _, _) => r.activationStep(u) == s - 1 }
          assert(pred, s"node $v at step $s lacks a predecessor at step ${s - 1}")
        }
      }
    }
  }

  test("live-edge coupling: raising weights only grows the activated set") {
    forAllRandom(iters = 60) { rnd =>
      val n = 2 + rnd.nextInt(15)
      val base = Seq.fill(rnd.nextInt(60))((rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble() * 0.5))
        .filter(e => e._1 != e._2)
      val lo = CsrGraph.fromTriples(n, base)
      val hi = CsrGraph.fromTriples(n, base.map { case (u, v, w) => (u, v, math.min(1.0, w + 0.3)) })
      val seeds = Array(rnd.nextInt(n))
      val trial = rnd.nextInt(100).toLong
      val a = IndependentCascade.simulate(lo, seeds, trial, 13).activatedSet
      val b = IndependentCascade.simulate(hi, seeds, trial, 13).activatedSet
      assert(a.subsetOf(b), s"lo=$a not within hi=$b")
    }
  }

  test("live-edge coupling: adding seeds only grows the activated set") {
    forAllRandom(iters = 60) { rnd =>
      val g = randomGraph(rnd, 3 + rnd.nextInt(15), rnd.nextInt(80))
      val s1 = Array(rnd.nextInt(g.n))
      val s2 = s1 :+ rnd.nextInt(g.n)
      val trial = rnd.nextInt(100).toLong
      val a = IndependentCascade.simulate(g, s1, trial, 17).activatedSet
      val b = IndependentCascade.simulate(g, s2, trial, 17).activatedSet
      assert(a.subsetOf(b))
    }
  }

  test("identical (trial, seed) reproduces the identical cascade") {
    forAllRandom(iters = 30) { rnd =>
      val g = randomGraph(rnd, 3 + rnd.nextInt(20), rnd.nextInt(100))
      val seeds = Array(rnd.nextInt(g.n))
      val t = rnd.nextInt(1000).toLong
      val a = IndependentCascade.simulate(g, seeds, t, 23)
      val b = IndependentCascade.simulate(g, seeds, t, 23)
      assert(a.activationStep.toSeq == b.activationStep.toSeq)
    }
  }

  test("different trials explore different worlds") {
    val g = star(50, 0.5)
    val sets = (0 until 10).map(t => IndependentCascade.simulate(g, Array(0), t.toLong, 29).activatedSet)
    assert(sets.distinct.size > 1, "all trials produced the same cascade — RNG not varying")
  }

  test("meanInfluence is bounded by [|seeds|, n]") {
    forAllRandom(iters = 30) { rnd =>
      val g = randomGraph(rnd, 3 + rnd.nextInt(15), rnd.nextInt(60))
      val seeds = Array(rnd.nextInt(g.n))
      val sigma = IndependentCascade.simulator(g, 31).meanInfluence(seeds, 50)
      assert(sigma >= 1.0 && sigma <= g.n)
    }
  }

  test("meanInfluence rejects non-positive trial counts") {
    assertThrows[IllegalArgumentException](
      IndependentCascade.simulator(path(3, 0.5), 1).meanInfluence(Array(0), 0))
  }
}
