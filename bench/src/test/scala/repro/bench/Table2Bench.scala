package repro.bench

import repro.SparkSpec
import repro.experiments.Table2

/** Full-scale reproduction of paper Table 2: CELF with 10 seeds on a random
  * 7-regular graph (n=5,000, 35,000 undirected edges), EWM ∈ {TV, WC},
  * backends CSR ("CyNetDiff") and boxed-frontier ("pure Python"); the
  * full-scan ("NDlib") backend runs under a 60 s wall-clock budget and is
  * reported DNF on expiry, mirroring the paper's five-minute DNF.
  */
class Table2Bench extends SparkSpec {

  test("Table 2: CELF runtimes by backend; paper: TV 2s vs 26s, WC 10s vs 153s, NDlib DNF") {
    val cells = Table2.run(spark)

    println()
    println("=== Table 2 (CELF, 10 seeds, random 7-regular n=5000, m=35000) ===")
    println(Table2.render(cells))
    println()

    assert(cells.size == 6, "2 EWMs × 3 backends")
    for (ewm <- Seq("TV", "WC")) {
      val Seq(csr, boxed, scan) = cells.filter(_.ewm == ewm)
      assert(csr.backend == "csr" && boxed.backend == "boxed" && scan.backend == "fullscan")
      assert(csr.result.completed, s"$ewm: CSR backend must finish")
      assert(boxed.result.completed, s"$ewm: boxed backend must finish")
      // Same σ̂ worlds → identical seed selections; only wall clock differs.
      assert(csr.result.seeds == boxed.result.seeds,
        s"$ewm: backends disagree on the selected seeds")
      // Shape: CSR materially faster (paper: 13× TV, 15× WC).
      assert(boxed.result.elapsedMs > csr.result.elapsedMs * 2,
        s"$ewm: expected CSR to win clearly; csr=${csr.seconds}s boxed=${boxed.seconds}s")
      // The full-scan backend must blow its 60 s budget (paper: DNF at 5 min).
      assert(!scan.result.completed, s"$ewm: full-scan unexpectedly finished in ${scan.seconds}s")
    }

    // Paper ordering: WC is the harder instance for every backend.
    val tvCsr = cells.find(c => c.ewm == "TV" && c.backend == "csr").get
    val wcCsr = cells.find(c => c.ewm == "WC" && c.backend == "csr").get
    assert(wcCsr.result.elapsedMs > tvCsr.result.elapsedMs,
      s"WC should cost more than TV for the CSR backend: TV=${tvCsr.seconds}s WC=${wcCsr.seconds}s")
  }
}
