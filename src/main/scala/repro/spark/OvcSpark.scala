package repro.spark

import org.apache.spark.{RangePartitioner, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{LongType, StructField, StructType}

import repro.core.{CodedRow, ERow, Ovc, OvcStats}
import repro.ops.{GroupAggOp, JoinType, MergeJoinOp}
import repro.sort.ExternalSort

/** A key vector with lexicographic ordering, usable as a Spark shuffle key
  * (RangePartitioner needs an Ordering and serializability).
  */
final case class KeyVec(xs: Array[Long]) extends Ordered[KeyVec] {
  override def compare(that: KeyVec): Int = {
    var i = 0
    val n = math.min(xs.length, that.xs.length)
    while (i < n) {
      if (xs(i) != that.xs(i)) return if (xs(i) < that.xs(i)) -1 else 1
      i += 1
    }
    xs.length - that.xs.length
  }
  override def hashCode: Int = java.util.Arrays.hashCode(xs)
  override def equals(o: Any): Boolean = o match {
    case k: KeyVec => java.util.Arrays.equals(xs, k.xs)
    case _ => false
  }
}

/** Offset-value coding inside Spark executors (paper §5: "an artificial
  * column for offset-value codes is introduced ... for order-producing
  * physical operators").
  *
  * Extension points used (see DESIGN.md): per-partition execution via
  * `mapPartitions`/`zipPartitions` for the operators themselves (the paper's
  * contribution is operator-internal), a shared `RangePartitioner` for the
  * order-preserving exchange, and native Catalyst `Expression`s
  * ([[OvcExpressions]]) for decoding the artificial column in SQL.
  */
object OvcSpark {

  /** An integral key column's value as Long; fails naming the column on a
    * null or a value outside the 48-bit OVC value domain.
    */
  private def toLong(v: Any, col: String): Long = {
    val l = v match {
      case l: Long  => l
      case i: Int   => i.toLong
      case s: Short => s.toLong
      case b: Byte  => b.toLong
      case null     => throw new IllegalArgumentException(s"null in key column $col")
      case other    => throw new IllegalArgumentException(s"non-integral value $other in key column $col")
    }
    require((l >>> Ovc.ValueBits) == 0L, s"value $l in key column $col lies outside [0, 2^${Ovc.ValueBits})")
    l
  }

  private def keyOf(r: Row, keyIdx: Array[Int], names: Array[String]): Array[Long] =
    Array.tabulate(keyIdx.length)(j => toLong(r.get(keyIdx(j)), names(j)))

  /** The one key path of [[sortedWithOvc]], [[groupCount]] and
    * [[OvcStore.write]]: range-repartitions `df` on `keyCols`, sorts each
    * partition and returns its rows in order, each with its key as Long and
    * its OVC relative to its partition predecessor (§4.10).
    */
  private[spark] def sortedCoded(df: DataFrame, keyCols: Seq[String]): RDD[(Row, Array[Long], Long)] = {
    val keyIdx = keyCols.map(df.schema.fieldIndex).toArray
    val names = keyCols.toArray
    df.repartitionByRange(keyCols.map(col): _*).sortWithinPartitions(keyCols.map(col): _*)
      .rdd.mapPartitions { it =>
        val junk = new OvcStats
        var prev: Array[Long] = null
        it.map { r =>
          val key = keyOf(r, keyIdx, names)
          val code = if (prev == null) Ovc.initial(key) else Ovc.encode(prev, key, junk)
          prev = key
          (r, key, code)
        }
      }
  }

  /** Range-repartition on `keyCols`, sort each partition, and attach the
    * packed ascending OVC of each row relative to its partition predecessor
    * as a new `ovc` column — an ordered scan originating codes (§4.10).
    */
  def sortedWithOvc(df: DataFrame, keyCols: Seq[String]): DataFrame =
    df.sparkSession.createDataFrame(
      sortedCoded(df, keyCols).map { case (r, _, code) => Row.fromSeq(r.toSeq :+ code) },
      StructType(df.schema.fields :+ StructField("ovc", LongType, nullable = false)))

  /** In-stream group count driven by the OVC column: one integer boundary
    * test per row inside each executor (§4.5, Figure 1). Output columns:
    * the key columns (as Long) plus `cnt`.
    */
  def groupCount(df: DataFrame, keyCols: Seq[String]): DataFrame = {
    val arity = keyCols.length
    val schema = StructType(
      keyCols.map(c => StructField(c, LongType, nullable = false)) :+
      StructField("cnt", LongType, nullable = false))
    val rdd = sortedCoded(df, keyCols).mapPartitions { it =>
      val coded = it.map { case (_, key, code) => CodedRow(key, code, ERow.NoPayload) }
      GroupAggOp.countByOvc(coded, arity, arity, new OvcStats).map { g =>
        Row.fromSeq(g.key.toSeq :+ g.payload(0))
      }
    }
    df.sparkSession.createDataFrame(rdd, schema)
  }

  /** `select keyCols from df1 intersect select keyCols from df2` executed the
    * sort-based way (Figure 2, right): both inputs co-partitioned by one
    * RangePartitioner built over their union (order-preserving exchange),
    * then per partition pair: in-sort duplicate removal on each side and an
    * offset-value-coded merge join (intersection = semi join of distinct
    * streams). Output columns: `keyCols` as Long.
    */
  def intersectDistinct(df1: DataFrame, df2: DataFrame, keyCols: Seq[String],
                        numPartitions: Int = 0): DataFrame = {
    val spark = df1.sparkSession
    val arity = keyCols.length

    def keyed(df: DataFrame) = {
      val idx = keyCols.map(df.schema.fieldIndex).toArray
      val names = keyCols.toArray
      df.rdd.map(r => (KeyVec(keyOf(r, idx, names)), ()))
    }

    val kv1 = keyed(df1)
    val kv2 = keyed(df2)
    val parts =
      if (numPartitions > 0) numPartitions
      else math.max(4, spark.sparkContext.defaultParallelism)
    val partitioner = new RangePartitioner(parts, kv1.union(kv2))
    val p1 = kv1.partitionBy(partitioner)
    val p2 = kv2.partitionBy(partitioner)

    val joined = p1.zipPartitions(p2) { (i1, i2) =>
      val stats = new OvcStats
      val spill = new repro.sort.SpillStats
      // In-sort dedup drops duplicate codes on both the in-memory and the
      // spilling path. The semi join may stop before the right sort ends, so
      // task completion closes both sorts and deletes their unread runs.
      def distinctSorted(it: Iterator[(KeyVec, Unit)]): Iterator[CodedRow] = {
        val sorted = ExternalSort.sort(it.map(kv => ERow(kv._1.xs)), arity, 0,
                                       memRows = 1 << 20, stats, spill, dedup = true)
        Option(TaskContext.get()).foreach(_.addTaskCompletionListener[Unit](_ => sorted.close()))
        sorted
      }
      MergeJoinOp(distinctSorted(i1), arity, distinctSorted(i2), arity, arity,
                  JoinType.LeftSemi, stats)
        .map(r => Row.fromSeq(r.key.toSeq))
    }
    val schema = StructType(keyCols.map(c => StructField(c, LongType, nullable = false)))
    spark.createDataFrame(joined, schema)
  }
}
