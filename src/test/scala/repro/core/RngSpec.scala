package repro.core

import org.scalacheck.Prop
import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers

/** Counter-based RNG: determinism, range, independence, uniformity. */
class RngSpec extends AnyFunSuite with PropHelpers {

  test("mix64 is deterministic") {
    assert(Rng.mix64(42L) == Rng.mix64(42L))
  }

  test("mix64 differs on consecutive inputs") {
    assert(Rng.mix64(1L) != Rng.mix64(2L))
  }

  test("mix64 of zero is not zero") {
    assert(Rng.mix64(0L) != 0L)
  }

  test("toUnit maps into [0, 1)") {
    for (x <- Seq(0L, -1L, Long.MaxValue, Long.MinValue, 123456789L)) {
      val u = Rng.toUnit(x)
      assert(u >= 0.0 && u < 1.0, s"toUnit($x) = $u out of range")
    }
  }

  test("coin is deterministic in all arguments") {
    assert(Rng.coin(1, 2, 3, 4) == Rng.coin(1, 2, 3, 4))
  }

  test("coin depends on the seed") {
    assert(Rng.coin(1, 2, 3, 4) != Rng.coin(2, 2, 3, 4))
  }

  test("coin depends on the trial") {
    assert(Rng.coin(1, 2, 3, 4) != Rng.coin(1, 3, 3, 4))
  }

  test("coin depends on the source node") {
    assert(Rng.coin(1, 2, 3, 4) != Rng.coin(1, 2, 5, 4))
  }

  test("coin depends on the target node") {
    assert(Rng.coin(1, 2, 3, 4) != Rng.coin(1, 2, 3, 5))
  }

  test("coin is asymmetric in (u, v) — directed edges draw independently") {
    assert(Rng.coin(1, 2, 3, 4) != Rng.coin(1, 2, 4, 3))
  }

  test("threshold and coin streams differ for the same identifiers") {
    assert(Rng.threshold(1, 2, 3) != Rng.coin(1, 2, 3, 3))
  }

  test("coin values lie in [0, 1) for arbitrary inputs") {
    checkProp(Prop.forAll { (seed: Long, trial: Long, u: Int, v: Int) =>
      val c = Rng.coin(seed, trial, u, v)
      c >= 0.0 && c < 1.0
    })
  }

  test("coin equals coinOf over the edge's key for arbitrary inputs, negative ids included") {
    // The second pair forces both ids negative, where edgeKey's mask on v matters.
    checkProp(Prop.forAll { (seed: Long, trial: Long, u: Int, v: Int) =>
      val (nu, nv) = (u | Int.MinValue, v | Int.MinValue)
      Rng.coin(seed, trial, u, v) == Rng.coinOf(seed, trial, Rng.edgeKey(u, v)) &&
        Rng.coin(seed, trial, nu, nv) == Rng.coinOf(seed, trial, Rng.edgeKey(nu, nv))
    })
  }

  test("threshold values lie in [0, 1) for arbitrary inputs") {
    checkProp(Prop.forAll { (seed: Long, trial: Long, v: Int) =>
      val t = Rng.threshold(seed, trial, v)
      t >= 0.0 && t < 1.0
    })
  }

  test("unit values lie in [0, 1) for arbitrary inputs") {
    checkProp(Prop.forAll { (seed: Long, key: Long) =>
      val x = Rng.unit(seed, key)
      x >= 0.0 && x < 1.0
    })
  }

  test("coin sample mean is near 1/2 (uniformity)") {
    val n = 100000
    val mean = (0 until n).map(i => Rng.coin(99, i.toLong, i % 251, i % 509)).sum / n
    assert(math.abs(mean - 0.5) < 0.01, s"mean $mean too far from 0.5")
  }

  test("coin sample variance is near 1/12 (uniformity)") {
    val n = 100000
    val xs = (0 until n).map(i => Rng.coin(99, i.toLong, i % 251, i % 509))
    val mean = xs.sum / n
    val varc = xs.map(x => (x - mean) * (x - mean)).sum / n
    assert(math.abs(varc - 1.0 / 12) < 0.005, s"variance $varc too far from 1/12")
  }

  test("threshold sample mean is near 1/2") {
    val n = 100000
    val mean = (0 until n).map(i => Rng.threshold(7, i.toLong / 100, i)).sum / n
    assert(math.abs(mean - 0.5) < 0.01)
  }

  test("coin decile histogram is flat to within 5%") {
    val n = 100000
    val buckets = new Array[Int](10)
    (0 until n).foreach { i =>
      buckets((Rng.coin(5, i.toLong, i % 97, i % 89) * 10).toInt) += 1
    }
    buckets.foreach(b => assert(math.abs(b - n / 10.0) < n * 0.005 * 10, s"bucket $b skewed"))
  }

  test("coins for distinct edges within one trial are uncorrelated (sign test)") {
    val n = 50000
    var agree = 0
    (0 until n).foreach { i =>
      val a = Rng.coin(3, 1, i, i + 1) < 0.5
      val b = Rng.coin(3, 1, i + 1, i + 2) < 0.5
      if (a == b) agree += 1
    }
    assert(math.abs(agree - n / 2.0) < n * 0.02, s"agreement $agree suggests correlation")
  }

  test("coins across trials for one edge are uncorrelated (sign test)") {
    val n = 50000
    var agree = 0
    (0 until n).foreach { t =>
      val a = Rng.coin(3, t.toLong, 10, 20) < 0.5
      val b = Rng.coin(3, t.toLong + 1, 10, 20) < 0.5
      if (a == b) agree += 1
    }
    assert(math.abs(agree - n / 2.0) < n * 0.02)
  }
}
