package repro.experiments

import repro.SparkSpec
import repro.graph.{Generators, GraphOps}
import repro.weights.EdgeWeights

/** Harness plumbing for the two paper tables (scaled-down smoke runs;
  * the full-scale measurements live in bench/).
  */
class TableSpec extends SparkSpec {

  test("pickSeeds returns the requested count of distinct in-range nodes") {
    val seeds = Table1.pickSeeds(200, 100, seed = 101)
    assert(seeds.length == 100)
    assert(seeds.distinct.length == 100)
    assert(seeds.forall(s => s >= 0 && s < 200))
  }

  test("pickSeeds is deterministic") {
    assert(Table1.pickSeeds(500, 50, 3).toSeq == Table1.pickSeeds(500, 50, 3).toSeq)
  }

  test("pickSeeds varies with the selection seed") {
    assert(Table1.pickSeeds(500, 50, 3).toSeq != Table1.pickSeeds(500, 50, 4).toSeq)
  }

  test("Table1 graph roster matches the paper's three rows") {
    val names = Table1.graphs(spark).map(_._1)
    assert(names == Seq("Erdős–Rényi", "Watts–Strogatz", "Facebook (Chung–Lu)"))
  }

  test("Table1.runCell produces positive per-trial times and sane normalization") {
    val undirected = Generators.erdosRenyi(spark, 100, 0.05, seed = 1)
    val weighted = EdgeWeights("WC", GraphOps.symmetrize(undirected), 2)
    val row = Table1.runCell("tiny", "WC", weighted, 100, nSeeds = 10,
      maxTrials = 30, minTimeMs = 50)
    assert(row.csrPerTrialMs > 0 && row.boxedPerTrialMs > 0 && row.fullScanPerTrialMs > 0)
    assert(Seq(row.csrNorm, row.boxedNorm, row.fullScanNorm).min == 1)
    assert(Seq(row.csrTrials, row.boxedTrials, row.fullScanTrials).forall(t => t >= 1 && t <= 30))
  }

  test("Table1.render emits one line per row plus a header") {
    val rows = Seq(Table1.Row("g", "TV", 1.0, 8.0, 64.0, 1000, 187, 23))
    val out = Table1.render(rows)
    assert(out.linesIterator.size == 2)
    assert(out.contains("TV"))
    assert(out.contains("64"))
  }

  test("Table1.renderRaw reports each rung's trial count") {
    val out = Table1.renderRaw(Seq(Table1.Row("g", "TV", 1.0, 8.0, 64.0, 1000, 187, 23)))
    assert(out.linesIterator.size == 2)
    assert(out.linesIterator.toSeq(1).split("\\s+").takeRight(3).toSeq == Seq("1000", "187", "23"))
  }

  test("Table1.Row normalization rounds against the fastest cell") {
    val r = Table1.Row("g", "UR", 2.0, 21.0, 399.0, 1000, 187, 23)
    assert(r.csrNorm == 1)
    assert(r.boxedNorm == 11)  // 21/2 = 10.5 → 11
    assert(r.fullScanNorm == 200)
  }

  test("Timing.perTrialMs runs at least the warmup plus one measured batch") {
    var calls = 0
    val res = Timing.perTrialMs(_ => calls += 1, maxTrials = 10, minTimeMs = 0)
    assert(calls >= 4) // 3 warm-up trials, then at least one measured
    assert(res.trials >= 1 && res.trials <= 10)
    assert(res.ms >= 0.0)
  }

  test("Timing.perTrialMs passes increasing trial indices") {
    val seen = scala.collection.mutable.ArrayBuffer.empty[Long]
    Timing.perTrialMs(t => { seen += t; () }, maxTrials = 5, minTimeMs = 0)
    assert(seen.toSeq == seen.toSeq.sorted)
    assert(seen.distinct.size == seen.size)
  }

  test("Timing.perTrialMs rejects non-positive maxTrials") {
    assertThrows[IllegalArgumentException](Timing.perTrialMs(_ => (), maxTrials = 0, minTimeMs = 0))
  }

  test("Table2.run smoke: small instance, CSR and boxed backends agree on seeds") {
    val cells = Table2.run(spark, trials = 20,
      includeFullScan = false, n = 200, degree = 5, k = 3)
    assert(cells.map(_.ewm).distinct == Seq("TV", "WC"))
    for (ewm <- Seq("TV", "WC")) {
      val byBackend = cells.filter(_.ewm == ewm)
      assert(byBackend.map(_.backend) == Seq("csr", "boxed"))
      val seedSets = byBackend.map(_.result.seeds)
      assert(seedSets.distinct.size == 1,
        s"$ewm: backends disagree on seeds: $seedSets — σ̂ must be backend-invariant")
      assert(byBackend.forall(_.result.completed))
      assert(byBackend.forall(_.result.seeds.size == 3))
    }
  }

  test("Table2.render reports DNF rows for incomplete results") {
    val cell = Table2.Cell("TV", "fullscan",
      repro.im.ImResult(Vector(1), Vector(2.0), 10, 61000, 10, 61000, completed = false))
    assert(cell.display.contains("DNF"))
    assert(Table2.render(Seq(cell)).contains("fullscan"))
  }

  test("Table2.render reports seconds for completed results") {
    val cell = Table2.Cell("WC", "csr",
      repro.im.ImResult(Vector(1, 2), Vector(2.0, 3.0), 10, 2500, 8, 2000, completed = true))
    assert(cell.display.contains("2.50 s"))
  }

  test("Table2.render splits a completed cell into round 0 and the lazy rounds") {
    val cell = Table2.Cell("WC", "csr",
      repro.im.ImResult(Vector(1, 2), Vector(2.0, 3.0), 5126, 630, 5000, 480, completed = true))
    assert(cell.display == "0.63 s (5126 evals; round 0 0.48 s, 5000 evals; lazy 0.15 s, 126 evals)")
  }
}
