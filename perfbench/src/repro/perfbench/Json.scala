package repro.perfbench

/** Minimal JSON values and a compact writer (the benchmark's output format). */
object Json {
  sealed trait Value { def render: String }

  final case class Num(x: Double) extends Value {
    def render: String =
      if (x.isNaN || x.isInfinite) "null"
      else if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString
      else java.lang.Double.toString(x)
  }

  final case class Str(s: String) extends Value {
    def render: String = {
      val b = new StringBuilder("\"")
      s.foreach {
        case '"' => b ++= "\\\""
        case '\\' => b ++= "\\\\"
        case '\n' => b ++= "\\n"
        case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
        case c => b += c
      }
      (b += '"').toString
    }
  }

  final case class Bool(b: Boolean) extends Value { def render: String = b.toString }

  final case class Arr(xs: Seq[Value]) extends Value {
    def render: String = xs.map(_.render).mkString("[", ",", "]")
  }

  final case class Obj(fields: Seq[(String, Value)]) extends Value {
    def render: String = fields.map { case (k, v) => Str(k).render + ":" + v.render }.mkString("{", ",", "}")
  }
}
