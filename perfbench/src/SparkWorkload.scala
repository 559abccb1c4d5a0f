package perfbench

import java.io.File
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.SparkListenerDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}

import repro.SynthData
import repro.core.{CodedRow, ERow, OvcInvariants}
import repro.spark.{OvcSpark, OvcStore, OvcStoreProvider}

/** Task metrics summed over every task that ends while it is registered. */
final class TaskTotals extends SparkListener {
  val runMs, gcMs, shuffleBytes, spillBytes = new AtomicLong

  def reset(): Unit = Seq(runMs, gcMs, shuffleBytes, spillBytes).foreach(_.set(0L))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null) {
      runMs.addAndGet(m.executorRunTime)
      gcMs.addAndGet(m.jvmGCTime)
      shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      spillBytes.addAndGet(m.diskBytesSpilled)
    }
  }
}

/** (rows, checksum) of a query result, computed inside the executors. */
object SparkResult {
  def of(df: DataFrame, keyCols: Int, countCol: Boolean): (Long, Long) =
    df.rdd.mapPartitions { it =>
      var n, sum = 0L
      it.foreach { r =>
        val key = Array.tabulate(keyCols)(r.getLong)
        sum += Engine.rowHash(key, if (countCol) r.getLong(keyCols) else 0L)
        n += 1
      }
      Iterator.single((n, sum))
    }.collect().foldLeft((0L, 0L)) { case ((n, s), (n2, s2)) => (n + n2, s + s2) }

  /** Checks the OVC chain of every partition of a stream with an `ovc`
    * column; returns the rows checked.
    */
  def verify(df: DataFrame, keyCols: Seq[String]): Long = {
    val idx = keyCols.map(df.schema.fieldIndex).toArray
    val ovc = df.schema.fieldIndex("ovc")
    df.rdd.mapPartitions { it =>
      val rows = it.map((r: Row) => CodedRow(idx.map(r.getLong), r.getLong(ovc), ERow.NoPayload)).toVector
      OvcInvariants.verifyChain(rows, idx.length)
      Iterator.single(rows.size.toLong)
    }.collect().sum
  }
}

/** Synthetic lineitem at SF 0.1 in a local Spark session. Each rep runs
  * `OvcSpark.groupCount` on `l_orderkey`, read from an `OvcStore` that setup
  * wrote, and `OvcSpark.intersectDistinct` on `(l_orderkey, l_partkey)` of
  * two cached inputs. Traced reps also run Spark's native plans for the
  * same two queries, as a reference for drift in Spark itself.
  */
final class SparkWorkload(seed: Long, scale: Double) extends Workload {
  private val sf = 0.1 * scale
  private val tmp = new File(System.getProperty("java.io.tmpdir"))
  private val storeDir = new File(tmp, "perfbench-store").getPath
  private val threads = math.min(4, Runtime.getRuntime.availableProcessors)
  private val totals = new TaskTotals

  private var spark: SparkSession = _
  private var lineitem, storeScan, store, t1, t2: DataFrame = _
  private var rows = 0L

  def inputRows: Long = rows
  val warmupReps: Int = 2

  override def allocatedBytes(): Long = Jvm.allThreadsAllocatedBytes()

  def setup(): Unit = {
    close()
    spark = SparkSession.builder()
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", new File(tmp, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(tmp, "spark-warehouse").getPath)
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark.sparkContext.addSparkListener(totals)
    lineitem = SynthData.lineitem(spark, sf, seed).select("l_orderkey").cache()
    t1 = SynthData.lineitem(spark, sf, seed + 1).select("l_orderkey", "l_partkey").cache()
    t2 = SynthData.lineitem(spark, sf, seed + 2).select("l_orderkey", "l_partkey").cache()
    rows = lineitem.count() + t1.count() + t2.count()
    OvcStore.write(lineitem, Seq("l_orderkey"), storeDir)
    storeScan = spark.read.format(classOf[OvcStoreProvider].getName).option("path", storeDir).load()
    store = storeScan.select("l_orderkey")
  }

  def reference(): (Long, Long) = {
    val counts = new java.util.HashMap[Long, java.lang.Long]()
    lineitem.collect().foreach(r => counts.merge(r.getLong(0), 1L, (x, y) => x + y))
    var sum = 0L
    counts.forEach((k, n) => sum += Engine.rowHash(Array(k), n))
    def pairs(df: DataFrame) = df.collect().iterator.map(r => (r.getLong(0), r.getLong(1))).toSet
    val both = pairs(t1).intersect(pairs(t2))
    both.foreach { case (a, b) => sum += Engine.rowHash(Array(a, b)) }
    (counts.size.toLong + both.size, sum)
  }

  private def groupCount() = SparkResult.of(OvcSpark.groupCount(store, Seq("l_orderkey")), 1, countCol = true)

  private def intersect() =
    SparkResult.of(OvcSpark.intersectDistinct(t1, t2, Seq("l_orderkey", "l_partkey")), 2, countCol = false)

  private def outcome(g: (Long, Long), i: (Long, Long)) = Outcome(g._1 + i._1, Some(g._2 + i._2), Map.empty)

  def run(): Outcome = outcome(groupCount(), intersect())

  def traced(t: Tracer, verify: Boolean): (Outcome, Map[String, Double]) = {
    SparkListenerDrain(spark.sparkContext)
    totals.reset()
    val (g, i) = t("plan") { (t("spark.group_count")(groupCount()), t("spark.intersect")(intersect())) }
    SparkListenerDrain(spark.sparkContext)
    val task = (totals.runMs.get / 1e3, totals.gcMs.get / 1e3, totals.shuffleBytes.get, totals.spillBytes.get)

    val ng = t("spark.native_group_count") {
      SparkResult.of(store.groupBy("l_orderkey").count(), 1, countCol = true)
    }
    val ni = t("spark.native_intersect")(SparkResult.of(t1.intersect(t2), 2, countCol = false))
    require(ng == g && ni == i, s"native plans give $ng, $ni; OVC plans $g, $i")
    if (verify) {
      require(SparkResult.verify(storeScan, Seq("l_orderkey")) == lineitem.count(), "store scan lost rows")
      SparkResult.verify(OvcSpark.sortedWithOvc(lineitem, Seq("l_orderkey")), Seq("l_orderkey"))
    }
    val m = Map(
      "plan_s" -> t.total("plan"),
      "spark.group_count_s" -> t.self("spark.group_count"),
      "spark.intersect_s" -> t.self("spark.intersect"),
      "spark.task_s" -> task._1,
      "spark.task_gc_s" -> task._2,
      "spark.shuffle_bytes" -> task._3.toDouble,
      "plans.spill_bytes_per_row" -> task._4.toDouble / rows,
      "spark.native_group_count_s" -> t.self("spark.native_group_count"),
      "spark.native_intersect_s" -> t.self("spark.native_intersect"))
    (outcome(g, i), m)
  }

  override def close(): Unit =
    if (spark != null) {
      spark.stop()
      spark = null
      deleteTree(new File(storeDir))
    }

  private def deleteTree(f: File): Unit = {
    Option(f.listFiles).foreach(_.foreach(deleteTree))
    f.delete()
  }
}
