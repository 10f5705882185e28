package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import scala.util.Try
import org.apache.spark.sql.SparkSession

/** The machine and software a run measured, so that figures from different
  * runs are compared only when they come from the same setting.
  */
object Provenance {
  private def read(path: String): Option[String] =
    Try(new String(Files.readAllBytes(Paths.get(path))).trim).toOption

  /** CPU caches as reported by the kernel for CPU 0, e.g. "L1d 48K". */
  private def caches: Seq[String] =
    (0 until 8).flatMap { i =>
      val dir = s"/sys/devices/system/cpu/cpu0/cache/index$i"
      for (level <- read(s"$dir/level"); kind <- read(s"$dir/type"); size <- read(s"$dir/size"))
        yield s"L$level${kind match { case "Data" => "d"; case "Instruction" => "i"; case _ => "" }} $size"
    }

  private def cpuModel: String =
    read("/proc/cpuinfo").flatMap(_.linesIterator.find(_.startsWith("model name")).map(_.split(":", 2)(1).trim))
      .getOrElse("unknown")

  /** Milliseconds for a fixed single-threaded hash loop that touches no
    * project code: a machine-speed reference, so that a shift in the figures
    * can be told apart from a slower or busier machine.
    */
  def calibrationMs(): Double = {
    val t0 = System.nanoTime()
    var x = 0L
    var i = 0
    while (i < 20000000) { x = Ctx.derive(x, i.toLong); i += 1 }
    val ms = (System.nanoTime() - t0) / 1e6
    if (x == 42L) Console.err.println("calibration checksum hit") // keeps the loop live
    ms
  }

  def of(o: Main.Opts, spark: SparkSession, cores: Int, setupReps: Int, calibration: Seq[Double]): Json.Obj = {
    val jvmArgs = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.toSeq
    Json.Obj(Seq(
      "workload" -> Json.Str(o.workload),
      "seed" -> Json.Num(o.seed.toDouble),
      "seconds" -> Json.Num(o.seconds),
      "trace" -> Json.Bool(o.trace),
      "git_commit" -> Json.Str(o.commit),
      "nproc" -> Json.Num(Runtime.getRuntime.availableProcessors),
      "spark_master" -> Json.Str(spark.sparkContext.master),
      "spark_cores" -> Json.Num(cores),
      "cpu_model" -> Json.Str(cpuModel),
      "caches" -> Json.Arr(caches.map(Json.Str)),
      "xmx" -> Json.Str(jvmArgs.find(_.startsWith("-Xmx")).getOrElse("default")),
      "max_heap_mb" -> Json.Num(Runtime.getRuntime.maxMemory / 1048576.0),
      "jvm" -> Json.Str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
      "scala_version" -> Json.Str(scala.util.Properties.versionNumberString),
      "spark_version" -> Json.Str(spark.version),
      "setup_repetitions" -> Json.Num(setupReps),
      "calibration_ms" -> Json.Arr(calibration.map(Json.Num)),
    ))
  }
}
