package repro.spark

import java.nio.file.Files

import repro.{Oracle, SparkSpec, SynthData}
import repro.core.{CodedRow, ERow, OvcInvariants}
import repro.sort.RunFile

/** DataSourceV2 OvcStore: prefix-truncated sorted files whose scan emits the
  * `ovc` column for free (paper §4.10).
  */
class OvcStoreSpec extends SparkSpec {

  private def tmp(): String = {
    val d = Files.createTempDirectory("ovcstore").toFile
    d.deleteOnExit()
    d.getAbsolutePath
  }

  private def readStore(dir: String) =
    spark.read.format(classOf[OvcStoreProvider].getName).option("path", dir).load()

  test("write/read roundtrip preserves rows exactly") {
    val df = SynthData.uniformKeys(spark, rows = 20000, nKeys = 400)
      .selectExpr("k", "cast(v * 100 as long) as v2")
    val dir = tmp()
    val counts = OvcStore.write(df, Seq("k", "v2"), dir)
    assert(counts.sum == 20000)
    val back = readStore(dir)
    assert(back.count() == 20000)
    val got = back.select("k", "v2").collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq
    val exp = df.collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq
    assert(got == exp)
  }

  test("scanned ovc column forms a valid chain in every file partition") {
    val df = SynthData.uniformKeys(spark, rows = 15000, nKeys = 300)
      .selectExpr("k", "cast(v * 50 as long) as v2")
    val dir = tmp()
    OvcStore.write(df, Seq("k", "v2"), dir)
    val parts = readStore(dir).rdd.mapPartitions { it =>
      val rows = it.map(r => CodedRow(Array(r.getLong(0), r.getLong(1)), r.getLong(2),
                                      ERow.NoPayload)).toVector
      Iterator.single(rows)
    }.collect()
    assert(parts.map(_.size).sum == 15000)
    parts.foreach(p => OvcInvariants.verifyChain(p, 2))
  }

  test("group count straight off the stored codes matches DuckDB") {
    OvcExpressions.register(spark)
    val df = SynthData.uniformKeys(spark, rows = 25000, nKeys = 600).select("k")
    val dir = tmp()
    OvcStore.write(df, Seq("k"), dir)
    readStore(dir).createOrReplaceTempView("store")
    // §4.4 duplicate removal on the scan output: rows with offset == arity.
    val distinctViaStore = spark.sql("SELECT k FROM store WHERE NOT ovc_is_dup(ovc, 1)")
    Oracle.assertEquivalent(distinctViaStore, "SELECT DISTINCT k FROM t", "t" -> df)
  }

  test("prefix truncation compresses relative to plain storage") {
    val df = SynthData.uniformKeys(spark, rows = 50000, nKeys = 100)
      .selectExpr("k", "k as k2", "k as k3")
    val dir = tmp()
    OvcStore.write(df, Seq("k", "k2", "k3"), dir)
    val bytes = OvcStore.files(dir).map(_.length).sum
    // Plain storage would be 3 longs/row = 1.2 MB; sorted heavy-duplicate
    // data prefix-truncates to far less.
    assert(bytes < 50000L * 3 * 8 / 2, s"store too large: $bytes bytes")
  }

  test("store scan of lineitem keys feeds OVC grouping with oracle-checked results") {
    val li = SynthData.lineitem(spark, sf = 0.01).select("l_orderkey", "l_linenumber")
    val dir = tmp()
    OvcStore.write(li, Seq("l_orderkey", "l_linenumber"), dir)
    OvcExpressions.register(spark)
    readStore(dir).createOrReplaceTempView("li_store")
    val got = spark.sql(
      """SELECT l_orderkey, l_linenumber, count(*) AS cnt
        |FROM li_store GROUP BY l_orderkey, l_linenumber""".stripMargin)
    Oracle.assertEquivalent(
      got,
      "SELECT l_orderkey, l_linenumber, count(*) AS cnt FROM li GROUP BY l_orderkey, l_linenumber",
      "li" -> li)
  }

  test("scanning a store twice returns the same rows: a scan leaves its files in place") {
    val df = SynthData.uniformKeys(spark, rows = 5000, nKeys = 200)
      .selectExpr("k", "cast(v * 20 as long) as v2")
    val dir = tmp()
    OvcStore.write(df, Seq("k", "v2"), dir)
    val files = OvcStore.files(dir).map(f => f.getName -> f.length).toSeq
    def scan() = readStore(dir).collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2))).sorted.toSeq
    val first = scan()
    assert(first.size == 5000)
    assert(scan() == first)
    assert(OvcStore.files(dir).map(f => f.getName -> f.length).toSeq == files)
  }

  test("a store with Int and Short key columns round-trips") {
    val df = SynthData.uniformKeys(spark, rows = 3000, nKeys = 50)
      .selectExpr("cast(k as int) as a", "cast(v * 30 as short) as b")
    val dir = tmp()
    assert(OvcStore.write(df, Seq("a", "b"), dir).sum == 3000)
    val back = readStore(dir)
    val got = back.select("a", "b").collect().map(r => (r.getLong(0), r.getLong(1))).sorted.toSeq
    val exp = df.collect().map(r => (r.getInt(0).toLong, r.getShort(1).toLong)).sorted.toSeq
    assert(got == exp)
    val parts = back.rdd.mapPartitions { it =>
      Iterator.single(it.map(r => CodedRow(Array(r.getLong(0), r.getLong(1)), r.getLong(2),
                                           ERow.NoPayload)).toVector)
    }.collect()
    parts.foreach(p => OvcInvariants.verifyChain(p, 2))
  }

  test("a null key fails the write with a clear IllegalArgumentException") {
    val df = spark.range(100).selectExpr("id as k", "if(id = 37, null, id % 5) as g")
    val e = intercept[Exception](OvcStore.write(df, Seq("k", "g"), tmp()))
    val cause = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .collectFirst { case i: IllegalArgumentException => i }
    assert(cause.exists(_.getMessage.contains("null in key column g")), e.toString)
  }

  test("a store of more key columns than a row's offset byte holds fails before any job") {
    val cols = (0 to RunFile.MaxArity).map(i => s"id as c$i")
    val df = spark.range(3).selectExpr(cols: _*)
    val dir = tmp()
    val e = intercept[IllegalArgumentException](OvcStore.write(df, cols.map(_.drop(6)), dir))
    assert(e.getMessage.contains(s"arity ${RunFile.MaxArity + 1}"))
    assert(new java.io.File(dir).list().isEmpty)
  }

  test("schemaOf a directory without .ovc files fails naming the directory") {
    val dir = tmp()
    Files.write(java.nio.file.Paths.get(dir, "README.txt"), "no store here".getBytes("UTF-8"))
    val e = intercept[IllegalArgumentException](OvcStore.schemaOf(dir))
    assert(e.getMessage.contains(dir))
    assert(intercept[IllegalArgumentException](readStore(dir)).getMessage.contains(dir))
  }
}
