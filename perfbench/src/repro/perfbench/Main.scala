package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession

/** Benchmark entry point: one workload, one seed, one closed loop.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *             --out <dir> [--commit <id>]
  *
  * Prints a report (lines starting with '#') and, as the last line, one JSON
  * object {correct, attempted, failed, metrics}. Untraced, the metrics are
  * the end-to-end ones; traced, they are the per-layer ones. Details,
  * provenance and (traced) the span list are written under `--out`.
  */
object Main {
  /** Set-up repetitions per run; `setup_s` reports their median. */
  val SetupReps = 3
  /** Fewest timed operations per run, however long they take. */
  val MinOps = 4

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, out: Path, commit: String)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case other => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $other")
    }
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, trace, Paths.get(need("out")),
      kv.getOrElse("commit", "unknown"))
  }

  def main(args: Array[String]): Unit = {
    val code =
      try { run(parse(args)); 0 }
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
    System.exit(code)
  }

  private def gcTotals: (Long, Double) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionCount).sum, beans.map(_.getCollectionTime).sum / 1e3)
  }

  /** Heap in use after full GCs, repeated until it stops shrinking: Spark
    * drops broadcast blocks asynchronously once their handles are collected,
    * so one GC leaves a varying amount of garbage behind.
    */
  private def settledHeapMb(): Double = {
    def used(): Double = {
      System.gc()
      Thread.sleep(200)
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    }
    var prev = used()
    var cur = used()
    var i = 0
    while (prev - cur > 0.25 && i < 10) { prev = cur; cur = used(); i += 1 }
    cur
  }

  /** Progress line in the run log (standard error). */
  def phase(name: String): Unit =
    Console.err.println(f"[perfbench] ${(System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3}%.1f s: $name")

  private def jitMs: Double = ManagementFactory.getCompilationMXBean.getTotalCompilationTime.toDouble

  def run(o: Opts): Unit = {
    require(Workload.Names.contains(o.workload), s"unknown workload '${o.workload}'; known: ${Workload.Names.mkString(", ")}")
    Files.createDirectories(o.out)
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val tracer = new Tracer(o.trace)
    val spark = tracer.span("spark.session")(session(cores, o.out))
    try measure(o, spark, tracer, cores)
    finally spark.stop()
  }

  private def session(cores: Int, out: Path): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", out.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toAbsolutePath.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private def measure(o: Opts, spark: SparkSession, tracer: Tracer, cores: Int): Unit = {
    val ctx = new Ctx(spark, tracer, o.trace, o.seed, cores)
    val w = Workload(o.workload, ctx)
    val report = ArrayBuffer.empty[Reported]

    // Set-up: the session once, then generation → CSR → warm-up, repeated.
    val sessionS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    val repS = (0 until SetupReps).map { r =>
      phase(s"set-up repetition $r")
      if (r > 0) ctx.release()
      val t0 = System.nanoTime()
      tracer.span("setup.rep")(w.setUp())
      (System.nanoTime() - t0) / 1e9
    }
    val setupS = sessionS + Stats.median(repS)
    val heapMb = settledHeapMb()
    val calibration = ArrayBuffer(Provenance.calibrationMs())
    phase("loop")

    // Closed loop, one operation at a time. The traced run alternates traced
    // and untraced operations; their medians give the tracing overhead.
    val opMs, tracedMs, untracedMs = ArrayBuffer.empty[Double]
    var attempted = 0
    var failed = 0
    val (gc0, gcS0) = gcTotals
    val jit0 = jitMs
    val loopStart = System.nanoTime()
    while (opMs.size < MinOps || System.nanoTime() - loopStart < o.seconds * 1e9) {
      tracer.enabled = o.trace && attempted % 2 == 0
      attempted += 1
      val t0 = System.nanoTime()
      val ok =
        try { tracer.span("op")(w.op()); true }
        catch { case NonFatal(e) => e.printStackTrace(); false }
      val ms = (System.nanoTime() - t0) / 1e6
      if (ok) {
        opMs += ms
        // The first operation also warms up; keep it out of the comparison.
        if (attempted > 1) (if (tracer.enabled) tracedMs else untracedMs) += ms
        if (!w.checkLast()) failed += 1
      } else failed += 1
      require(attempted < 100 || opMs.nonEmpty, "every operation failed")
    }
    val loopS = (System.nanoTime() - loopStart) / 1e9
    val (gc1, gcS1) = gcTotals
    val jit1 = jitMs
    calibration += Provenance.calibrationMs()
    tracer.enabled = o.trace

    val checks = ArrayBuffer.empty[(String, Boolean)]
    phase("checks")
    checks ++= w.finalChecks()
    val layers = ArrayBuffer.empty[(String, String, Double)]
    if (o.trace) {
      phase("probes")
      val probes = new Probes(w, ctx)
      probes.runAll()
      checks ++= probes.checks
      report ++= probes.report
      layers ++= setupLayers(tracer, sessionS)
      report ++= tracer.spans.map(_.name).distinct.filter(_.startsWith("weights.weight_collect."))
        .map(n => Reported.of(n + "_s", "s", tracer.durations(n)))
      layers ++= probes.layers
      val (gcN, gcS) = gcTotals
      layers += (("jvm.gc_s", "s", gcS))
      layers += (("jvm.gc_count", "count", gcN.toDouble))
      layers += (("jvm.jit_ms", "ms", jitMs))
      layers += (("trace.overhead_frac", "ratio", Stats.median(tracedMs.toSeq) / Stats.median(untracedMs.toSeq) - 1))
    }
    attempted += checks.size
    failed += checks.count(!_._2)

    val endToEnd = Seq(
      ("setup_s", "s", setupS),
      ("retained_heap_mb", "MB", heapMb),
      ("op_ms", "ms", Stats.median(opMs.toSeq)),
    )
    report += Reported.value("setup_s", "s", setupS, SetupReps)
    report += Reported.of("setup.repetition_s", "s", repS)
    report += Reported.value("setup.session_s", "s", sessionS, 1)
    report += Reported.value("retained_heap_mb", "MB", heapMb, 1)
    report += Reported.of("op_ms", "ms", opMs.toSeq)
    report ++= w.userMetrics
    report += Reported.value("ops_failed_frac", "ratio", failed.toDouble / attempted, attempted)
    report += Reported.value("loop.jvm.gc_s", "s", gcS1 - gcS0, (gc1 - gc0).toInt)
    report += Reported.value("loop.jvm.jit_ms", "ms", jit1 - jit0, 1)
    report += Reported.value("loop.seconds", "s", loopS, opMs.size)

    phase("report")
    val provenance = Provenance.of(o, spark, cores, SetupReps, calibration.toSeq)
    val metrics = if (o.trace) layers.toSeq else endToEnd
    val tag = s"${o.workload}-seed${o.seed}-trace${if (o.trace) 1 else 0}"
    if (o.trace) tracer.writeJsonLines(o.out.resolve(s"$tag.spans.jsonl"))
    val details = Json.Obj(Seq(
      "provenance" -> provenance,
      "metrics" -> Json.Arr(metrics.map { case (n, u, v) =>
        Json.Obj(Seq("name" -> Json.Str(n), "unit" -> Json.Str(u), "value" -> Json.Num(v))) }),
      "report" -> Json.Arr(report.toSeq.map(r => Json.Obj(Seq(
        "name" -> Json.Str(r.name), "unit" -> Json.Str(r.unit), "value" -> Json.Num(r.value), "n" -> Json.Num(r.n),
      ) ++ r.tail.map { case (p, v) => "p" + Stats.fmtPct(p) -> Json.Num(v) }))),
      "checks" -> Json.Obj(checks.toSeq.map { case (n, ok) => n -> Json.Bool(ok) }),
      "attempted" -> Json.Num(attempted), "failed" -> Json.Num(failed),
    ))
    Files.writeString(o.out.resolve(s"$tag.json"), details.render + "\n")

    println(s"# provenance ${provenance.render}")
    report.foreach(r => println(s"# ${r.describe}"))
    checks.filterNot(_._2).foreach { case (n, _) => println(s"# FAILED check $n") }
    if (o.trace) layers.foreach { case (n, u, v) => println(f"# layer $n%-34s $v%.6g $u") }
    println(Json.Obj(Seq(
      "correct" -> Json.Bool(failed == 0),
      "attempted" -> Json.Num(attempted),
      "failed" -> Json.Num(failed),
      "metrics" -> Json.Obj(metrics.map { case (n, u, v) =>
        n -> Json.Obj(Seq("value" -> Json.Num(v), "unit" -> Json.Str(u))) }),
    )).render)
  }

  /** Set-up stages from the spans: per repetition, the sum of each stage's
    * spans; then the median over repetitions.
    */
  private def setupLayers(tracer: Tracer, sessionS: Double): Seq[(String, String, Double)] = {
    val spans = tracer.spans
    val reps = spans.filter(_.name == "setup.rep")
    val kids = spans.groupBy(_.parent)
    def stage(prefix: String): Double =
      Stats.median(reps.map(r => kids.getOrElse(r.id, Nil).filter(_.name.startsWith(prefix)).map(_.duration).sum / 1e9))
    Seq(
      ("spark.session_s", "s", tracer.durations("spark.session").head),
      ("setup.jvm_to_session_s", "s", sessionS),
      ("graph.generate_s", "s", stage("graph.generate")),
      ("graph.symmetrize_s", "s", stage("graph.symmetrize")),
      ("weights.weight_collect_s", "s", stage("weights.weight_collect")),
      ("core.csr_build_ms", "ms", stage("core.csr_build") * 1e3),
      ("setup.warmup_s", "s", stage("setup.warmup")),
    )
  }
}
