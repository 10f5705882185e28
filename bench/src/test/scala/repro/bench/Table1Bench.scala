package repro.bench

import repro.SparkSpec
import repro.experiments.Table1

/** Full-scale reproduction of paper Table 1: IC with 100 seeds on
  * {Erdős–Rényi, Watts–Strogatz, Facebook-substitute} × {TV, UR, WC},
  * three implementations, runtimes normalized per row (fastest = 1).
  *
  * Prints both the normalized table (the paper's format) and raw per-trial
  * milliseconds; EXPERIMENTS.md records paper-vs-measured.
  */
class Table1Bench extends SparkSpec {

  test("Table 1: normalized IC runtimes across graphs, EWMs, implementations") {
    val rows = Table1.run(spark)

    println()
    println("=== Table 1 (normalized, fastest = 1) — paper: CyNetDiff=1, pure Python 8-12, NDlib 45-327 ===")
    println(Table1.render(rows))
    println()
    println("=== Table 1 (raw per-trial ms) ===")
    println(Table1.renderRaw(rows))
    println()

    assert(rows.size == 9, "3 graphs × 3 EWMs")
    rows.foreach { r =>
      // Shape assertions, not absolute numbers: the CSR engine must win
      // every cell by a material factor (paper: ≥8× vs pure Python,
      // ≥45× vs NDlib).
      assert(r.csrNorm == 1, s"${r.graph}/${r.ewm}: CSR not fastest: $r")
      assert(r.boxedPerTrialMs > r.csrPerTrialMs * 2,
        s"${r.graph}/${r.ewm}: boxed-frontier should trail CSR clearly: $r")
      assert(r.fullScanPerTrialMs > r.csrPerTrialMs * 3,
        s"${r.graph}/${r.ewm}: full-scan should trail CSR clearly: $r")
    }
    // Between the two baselines the paper's ordering (NDlib slowest) holds
    // wherever frontiers stay below saturation; in saturated-cascade cells
    // (100 seeds + UR/WC can activate most of the graph) the full-scan
    // penalty is structurally immaterial, so assert a clear majority of
    // rows rather than every row (see EXPERIMENTS.md).
    val scanSlowest = rows.count(r => r.fullScanPerTrialMs > r.boxedPerTrialMs)
    assert(scanSlowest >= 7, s"full-scan slowest in only $scanSlowest/9 rows")
  }
}
