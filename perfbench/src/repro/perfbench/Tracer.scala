package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder for the traced run.
  *
  * A span is (name, start, end, parent) in `System.nanoTime` units; spans are
  * kept in growable columns in memory and written out once, when the run
  * ends. A disabled tracer records nothing and only calls through, so the
  * untraced run measures the same code with the span bookkeeping removed;
  * `enabled` may be switched between operations.
  */
final class Tracer(var enabled: Boolean) {
  private val names = ArrayBuffer.empty[String]
  private val starts = ArrayBuffer.empty[Long]
  private val ends = ArrayBuffer.empty[Long]
  private val parents = ArrayBuffer.empty[Int]
  private var current = -1

  def size: Int = names.size

  /** Time `f` as a span named `name`, child of the innermost open span. */
  def span[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val id = names.size
      names += name; starts += System.nanoTime(); ends += -1L; parents += current
      val saved = current
      current = id
      try f
      finally {
        ends(id) = System.nanoTime()
        current = saved
      }
    }

  def spans: IndexedSeq[Tracer.Span] =
    names.indices.map(i => Tracer.Span(i, names(i), starts(i), ends(i), parents(i)))

  /** Durations in seconds of every span called `name`. */
  def durations(name: String): IndexedSeq[Double] =
    names.indices.collect { case i if names(i) == name => (ends(i) - starts(i)) / 1e9 }

  /** Write one JSON object per span, with times relative to the first span. */
  def writeJsonLines(path: java.nio.file.Path): Unit = {
    val t0 = if (starts.isEmpty) 0L else starts.min
    val w = java.nio.file.Files.newBufferedWriter(path)
    try spans.foreach { s =>
      w.write(Json.Obj(Seq(
        "id" -> Json.Num(s.id), "name" -> Json.Str(s.name),
        "start_ns" -> Json.Num((s.start - t0).toDouble), "end_ns" -> Json.Num((s.end - t0).toDouble),
        "parent" -> Json.Num(s.parent),
      )).render)
      w.newLine()
    }
    finally w.close()
  }
}

object Tracer {
  final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int) {
    def duration: Long = end - start
  }

  /** A span's duration minus the part of its interval covered by at least
    * one child. Children may overlap each other (concurrent work), so the
    * covered part is the length of the union of their clipped intervals.
    */
  def selfTime(s: Span, children: Seq[Span]): Long = {
    val clipped = children
      .map(c => (math.max(c.start, s.start), math.min(c.end, s.end)))
      .filter { case (a, b) => b > a }
      .sortBy(_._1)
    var covered = 0L
    var curStart = Long.MinValue
    var curEnd = Long.MinValue
    for ((a, b) <- clipped) {
      if (a > curEnd) {
        if (curEnd > curStart) covered += curEnd - curStart
        curStart = a; curEnd = b
      } else if (b > curEnd) curEnd = b
    }
    if (curEnd > curStart) covered += curEnd - curStart
    s.duration - covered
  }
}
