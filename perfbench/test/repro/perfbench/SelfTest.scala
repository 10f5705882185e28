package repro.perfbench

import repro.core.{CsrGraph, IndependentCascade}
import repro.im.Celf

/** Tests of the benchmark's own arithmetic: the tail percentile rule, span
  * self time, the edges-per-trial count and the CELF layer split.
  *
  * Run with `python3 perfbench/run.py --self-test`; exits non-zero on the
  * first failed case.
  */
object SelfTest {
  private var passed = 0

  private def check(name: String)(cond: => Boolean): Unit = {
    if (!cond) { println(s"FAIL $name"); System.exit(1) }
    passed += 1
    println(s"ok   $name")
  }

  def main(args: Array[String]): Unit = {
    percentiles()
    selfTime()
    edgesPerTrial()
    celfLayers()
    println(s"$passed checks passed")
  }

  private def percentiles(): Unit = {
    val xs = (1 to 100).map(_.toDouble)
    check("nearest-rank p90 of 1..100 is 90")(Stats.percentile(xs, 90) == 90.0)
    check("nearest-rank p99 of 1..100 is 99")(Stats.percentile(xs, 99) == 99.0)
    check("p100 is the maximum")(Stats.percentile(xs.reverse, 100) == 100.0)
    check("median of an even count averages the middle two")(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    check("median of an odd count is the middle one")(Stats.median(Seq(5.0, 1.0, 3.0)) == 3.0)
    check("19 samples: no tail percentile")(Stats.tailPercentile(19).isEmpty)
    check("99 samples: no tail (p90 has 9 beyond)")(Stats.tailPercentile(99).isEmpty)
    check("100 samples: p90 has exactly 10 beyond")(Stats.tailPercentile(100).contains(90.0))
    check("999 samples: p99 has only 9 beyond, so p90")(Stats.tailPercentile(999).contains(90.0))
    check("1000 samples: p99")(Stats.tailPercentile(1000).contains(99.0))
    check("10000 samples: p99.9")(Stats.tailPercentile(10000).contains(99.9))
    check("summary reports the tail value")(Stats.summarize(xs).tail.contains((90.0, 90.0)))
  }

  private def selfTime(): Unit = {
    val parent = Tracer.Span(0, "p", 0, 100, -1)
    def kid(a: Long, b: Long) = Tracer.Span(1, "c", a, b, 0)
    check("no children: self time is the duration")(Tracer.selfTime(parent, Nil) == 100)
    check("disjoint children are subtracted")(Tracer.selfTime(parent, Seq(kid(10, 20), kid(50, 80))) == 60)
    check("overlapping children count their union once")(
      Tracer.selfTime(parent, Seq(kid(10, 40), kid(30, 60), kid(35, 50))) == 50)
    check("children are clipped to the parent")(Tracer.selfTime(parent, Seq(kid(-10, 10), kid(90, 120))) == 80)
    check("a child nested in another adds nothing")(Tracer.selfTime(parent, Seq(kid(0, 100), kid(20, 30))) == 0)

    val t = new Tracer(true)
    t.span("outer") { t.span("inner")(Thread.sleep(5)); Thread.sleep(5) }
    val Seq(outer, inner) = t.spans
    check("tracer links a child to its parent")(inner.parent == outer.id && outer.parent == -1)
    check("tracer self time excludes the child")(
      Tracer.selfTime(outer, Seq(inner)) == outer.duration - inner.duration)
    val off = new Tracer(false)
    off.span("x")(())
    check("a disabled tracer records nothing")(off.size == 0)
  }

  private def edgesPerTrial(): Unit = {
    // 0→1 and 0→2 always fire (w=1), 1→3 always fires, 2→3 and 3→0 never
    // do (w=0); node 4 is isolated.
    val g = CsrGraph.fromTriples(5, Seq((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 0.0), (3, 0, 0.0)))
    def edges(seeds: Array[Int]): Long =
      Probes.edgesScanned(g, IndependentCascade.simulate(g, seeds, trial = 0, seed = 1).activationStep)
    check("seed 0 activates 0,1,2,3: out-degrees 2+1+1+1")(edges(Array(0)) == 5)
    check("seed 2 activates only 2: its one out-edge")(edges(Array(2)) == 1)
    check("an isolated seed scans no edge")(edges(Array(4)) == 0)
    check("seeds 2 and 4: one edge")(edges(Array(2, 4)) == 1)
  }

  private def celfLayers(): Unit = {
    // A modular σ: each lazy round re-evaluates the stale top once, then
    // selects it, so k seeds cost |C| round-0 calls plus k-1 lazy ones.
    val value = (0 until 20).map(v => (v * 7 % 20).toDouble)
    val t = new Tracer(true)
    val k = 4
    t.span("op")(t.span("im.celf")(Celf.run(s => t.span("im.sigma_eval")(s.map(value).sum), 0 until 20, k)))
    val im = Probes.celfLayers(t, candidates = 20, k = k)
    check("all σ̂ calls counted")(im.evals == 20 + k - 1)
    check("lazy evaluations are the calls after round 0")(im.lazyEvals == k - 1)
    check("hit rate is k / (k + lazy evals)")(im.hitRate == k.toDouble / (2 * k - 1) && im.hitBase == 2 * k - 1)
    check("round 0 and the lazy rounds split the call")(
      math.abs(im.round0S + im.lazyS - t.durations("im.celf").head) < 1e-12)
    check("self time is the call minus its σ̂ calls")(
      math.abs(im.selfS - (t.durations("im.celf").head - t.durations("im.sigma_eval").sum)) < 1e-9)
  }
}
