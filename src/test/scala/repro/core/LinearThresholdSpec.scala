package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import repro.baselines.BoxedFrontier

/** LT engine: analytic cases, threshold-world coupling, invariants. */
class LinearThresholdSpec extends AnyFunSuite with PropHelpers {

  private def path(n: Int, w: Double): CsrGraph =
    CsrGraph.fromTriples(n, (0 until n - 1).map(i => (i, i + 1, w)))

  private def star(n: Int, w: Double): CsrGraph =
    CsrGraph.fromTriples(n, (1 until n).map(i => (0, i, w)))

  private def randomGraph(rnd: scala.util.Random, n: Int, m: Int): CsrGraph = {
    val raw = Seq.fill(m)((rnd.nextInt(n), rnd.nextInt(n), rnd.nextDouble()))
      .filter(e => e._1 != e._2)
    // Normalize incoming weights to <= 1 (the LT feasibility condition).
    val sums = raw.groupBy(_._2).map { case (v, es) => v -> es.map(_._3).sum }
    CsrGraph.fromTriples(n, raw.map { case (u, v, w) => (u, v, w / math.max(1.0, sums(v))) })
  }

  test("no seeds activates nothing") {
    val r = LinearThreshold.simulate(path(5, 1.0), Array.empty, 0, 1)
    assert(r.totalActivated == 0)
  }

  test("seeds activate at step 0 regardless of thresholds") {
    val r = LinearThreshold.simulate(path(5, 0.0), Array(1, 3), 0, 1)
    assert(r.activationStep(1) == 0 && r.activationStep(3) == 0)
    assert(r.totalActivated == 2)
  }

  test("duplicate seeds are counted once") {
    val r = LinearThreshold.simulate(path(5, 0.0), Array(1, 1), 0, 1)
    assert(r.totalActivated == 1)
  }

  test("weight 1.0 always exceeds any threshold — full path activates") {
    // thresholds are in [0,1) so an incoming weight of 1.0 always crosses.
    (0 until 20).foreach { t =>
      val r = LinearThreshold.simulate(path(6, 1.0), Array(0), t.toLong, 3)
      assert(r.totalActivated == 6, s"trial $t")
      assert(r.activationStep.toSeq == Seq(0, 1, 2, 3, 4, 5))
    }
  }

  test("weight 0.0 never activates a node with a positive threshold") {
    // With w=0 the accumulator stays 0; activation requires threshold == 0,
    // a ~2^-53 event — absent over a handful of trials.
    (0 until 20).foreach { t =>
      val r = LinearThreshold.simulate(star(10, 0.0), Array(0), t.toLong, 3)
      assert(r.totalActivated == 1, s"trial $t")
    }
  }

  test("leaf activation frequency on a star equals the edge weight") {
    // leaf activates iff threshold <= w: probability w for U[0,1) thresholds.
    val w = 0.35
    val g = star(2, w)
    val trials = 20000
    val sim = LinearThreshold.simulator(g, 5)
    val hits = (0 until trials).count(t => sim.activatedCount(Array(0), t.toLong) == 2)
    assert(math.abs(hits.toDouble / trials - w) < 0.01, s"freq ${hits.toDouble / trials}")
  }

  test("two half-weight in-neighbors activate what one full-weight one would") {
    // v=2 has in-edges from 0 and 1 each of weight 0.5; seeding both makes
    // the accumulated weight 1.0, crossing any threshold.
    val g = CsrGraph.fromTriples(3, Seq((0, 2, 0.5), (1, 2, 0.5)))
    (0 until 20).foreach { t =>
      val r = LinearThreshold.simulate(g, Array(0, 1), t.toLong, 7)
      assert(r.totalActivated == 3, s"trial $t")
      assert(r.activationStep(2) == 1)
    }
  }

  test("single half-weight in-neighbor activates with frequency 1/2") {
    val g = CsrGraph.fromTriples(3, Seq((0, 2, 0.5), (1, 2, 0.5)))
    val trials = 20000
    val sim = LinearThreshold.simulator(g, 7)
    val hits = (0 until trials).count(t => sim.activatedCount(Array(0), t.toLong) == 2)
    assert(math.abs(hits.toDouble / trials - 0.5) < 0.012, s"freq ${hits.toDouble / trials}")
  }

  test("activatedCount equals simulate.totalActivated on random graphs") {
    forAllRandom(iters = 100) { rnd =>
      val g = randomGraph(rnd, 2 + rnd.nextInt(20), rnd.nextInt(80))
      val seeds = Array.fill(1 + rnd.nextInt(3))(rnd.nextInt(g.n))
      val trial = rnd.nextInt(1000).toLong
      val expected = BoxedFrontier.simulateLT(g.n, BoxedFrontier.buildAdjacency(g.edgeTriples), seeds.toSeq, trial, 7)
      assert(LinearThreshold.simulator(g, 7).activatedCount(seeds, trial) == expected.totalActivated)
      assert(LinearThreshold.simulate(g, seeds, trial, 7).totalActivated == expected.totalActivated)
    }
  }

  test("newPerStep sums to totalActivated") {
    forAllRandom(iters = 50) { rnd =>
      val g = randomGraph(rnd, 2 + rnd.nextInt(20), rnd.nextInt(80))
      val r = LinearThreshold.simulate(g, Array(rnd.nextInt(g.n)), rnd.nextInt(50).toLong, 7)
      assert(r.newPerStep.sum == r.totalActivated)
    }
  }

  test("every non-seed activated node has an activated in-neighbor (Observation 1)") {
    forAllRandom(iters = 50) { rnd =>
      val g = randomGraph(rnd, 2 + rnd.nextInt(25), rnd.nextInt(120))
      val r = LinearThreshold.simulate(g, Array(rnd.nextInt(g.n)), rnd.nextInt(50).toLong, 11)
      val incoming = g.edgeTriples.groupBy(_._2)
      r.activationStep.zipWithIndex.foreach { case (s, v) =>
        if (s > 0) {
          val pred = incoming.getOrElse(v, Nil)
            .exists { case (u, _, _) => r.activationStep(u) >= 0 && r.activationStep(u) < s }
          assert(pred, s"node $v at step $s has no earlier-activated in-neighbor")
        }
      }
    }
  }

  test("threshold-world semantics: activation step is the first crossing step") {
    forAllRandom(iters = 40) { rnd =>
      val g = randomGraph(rnd, 3 + rnd.nextInt(12), rnd.nextInt(60))
      val trial = rnd.nextInt(100).toLong
      val seeds = Array(rnd.nextInt(g.n))
      val r = LinearThreshold.simulate(g, seeds, trial, 13)
      val incoming = g.edgeTriples.groupBy(_._2)
      // Reference recomputation: v active at step s iff the total weight of
      // in-neighbors active before s reaches threshold(v).
      r.activationStep.zipWithIndex.foreach { case (s, v) =>
        if (s > 0) {
          val wBefore = incoming.getOrElse(v, Nil)
            .collect { case (u, _, w) if r.activationStep(u) >= 0 && r.activationStep(u) < s => w }
            .sum
          assert(wBefore >= Rng.threshold(13, trial, v), s"node $v activated below threshold")
        }
      }
    }
  }

  test("coupling: adding seeds only grows the activated set") {
    forAllRandom(iters = 60) { rnd =>
      val g = randomGraph(rnd, 3 + rnd.nextInt(15), rnd.nextInt(80))
      val s1 = Array(rnd.nextInt(g.n))
      val s2 = s1 :+ rnd.nextInt(g.n)
      val trial = rnd.nextInt(100).toLong
      val a = LinearThreshold.simulate(g, s1, trial, 17).activatedSet
      val b = LinearThreshold.simulate(g, s2, trial, 17).activatedSet
      assert(a.subsetOf(b))
    }
  }

  test("identical (trial, seed) reproduces the identical cascade") {
    forAllRandom(iters = 30) { rnd =>
      val g = randomGraph(rnd, 3 + rnd.nextInt(20), rnd.nextInt(100))
      val seeds = Array(rnd.nextInt(g.n))
      val t = rnd.nextInt(1000).toLong
      val a = LinearThreshold.simulate(g, seeds, t, 23)
      val b = LinearThreshold.simulate(g, seeds, t, 23)
      assert(a.activationStep.toSeq == b.activationStep.toSeq)
    }
  }

  test("different trials explore different threshold worlds") {
    val g = star(50, 0.5)
    val sets = (0 until 10).map(t => LinearThreshold.simulate(g, Array(0), t.toLong, 29).activatedSet)
    assert(sets.distinct.size > 1)
  }

  test("meanInfluence rejects non-positive trial counts") {
    assertThrows[IllegalArgumentException](
      LinearThreshold.simulator(path(3, 0.5), 1).meanInfluence(Array(0), -1))
  }

  test("the LT simulator rejects a node whose in-weights sum above 1, naming it") {
    val g = CsrGraph.fromTriples(3, Seq((0, 2, 0.7), (1, 2, 0.7)))
    val e = intercept[IllegalArgumentException](new LtSimulator(g, 1))
    assert(e.getMessage.contains("node 2"), e.getMessage)
    assertThrows[IllegalArgumentException](LinearThreshold.simulate(g, Array(0), 0, 1))
    assertThrows[IllegalArgumentException](LinearThreshold.simulator(g, 1).meanInfluence(Array(0), 10))
  }

  test("meanInfluence on the single half-weight star is 1.5") {
    val sigma = LinearThreshold.simulator(star(2, 0.5), 5).meanInfluence(Array(0), 20000)
    assert(math.abs(sigma - 1.5) < 0.02, s"sigma $sigma")
  }
}
