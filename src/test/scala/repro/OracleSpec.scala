package repro

import org.apache.spark.sql.functions.{count, lit}

/** Negative controls for the DuckDB oracle: a wrong result or a wrong column
  * set must fail the check, or every oracle test could pass vacuously.
  */
class OracleSpec extends SparkSpec {

  private lazy val edges = {
    import spark.implicits._
    Seq((0, 1), (1, 2), (2, 0), (0, 2), (3, 1)).toDF("src", "dst")
  }

  test("oracle rejects mismatched results (negative control)") {
    val wrong = edges.groupBy("src").agg((count(lit(1)) + 1).as("cnt"))
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(
        wrong,
        "SELECT src, count(*) as cnt FROM e GROUP BY src",
        "e" -> edges,
      )
    }
  }

  test("oracle rejects mismatched column sets (negative control)") {
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(
        edges.selectExpr("count(*) as total"),
        "SELECT count(*) as other_name FROM e",
        "e" -> edges,
      )
    }
  }
}
