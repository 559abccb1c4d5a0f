package perfbench

import java.nio.file.Files

import scala.collection.mutable.ArrayBuffer

import repro.core.{CodedRow, ERow, OvcInvariants, OvcStats}
import repro.hash.{HashAgg, HashJoin}
import repro.ops.{FilterOp, GroupAggOp, JoinType, MergeJoinOp, RleTable, SegmentedSortOp}
import repro.plans.IntersectPlans
import repro.sort.{ExternalSort, RunFile, SpillStats}

object Workloads {
  def apply(name: String, seed: Long, scale: Double): Workload = name match {
    case "intersect-sort"   => new IntersectWorkload(sortPlan = true, seed, scale)
    case "intersect-hash"   => new IntersectWorkload(sortPlan = false, seed, scale)
    case "ordered-pipeline" => new PipelineWorkload(seed, scale)
    case "spark-ovc"        => new SparkWorkload(seed, scale)
    case other              => throw new IllegalArgumentException(s"unknown workload $other")
  }
}

/** Helpers shared by the engine workloads. */
object Engine {

  /** Order-independent checksum of a result row. */
  def rowHash(key: Array[Long], extra: Long = 0L): Long = {
    var h = 0x9e3779b97f4a7c15L ^ extra
    var i = 0
    while (i < key.length) {
      h = (h ^ key(i)) * 0xbf58476d1ce4e5b9L
      h ^= h >>> 31
      i += 1
    }
    h
  }

  def counters(stats: OvcStats, spill: SpillStats): Map[String, Long] = Map(
    "code_cmps" -> stats.codeComparisons, "col_cmps" -> stats.columnComparisons,
    "row_cmps" -> stats.rowComparisons, "hash_col_accesses" -> stats.hashColumnAccesses,
    "spill_rows" -> spill.rowsSpilled, "spill_bytes" -> spill.bytesSpilled)

  def sumStats(xs: OvcStats*): OvcStats = { val s = new OvcStats; xs.foreach(s.add); s }

  def minus(a: OvcStats, b: OvcStats): OvcStats = {
    val s = sumStats(a)
    s.codeComparisons -= b.codeComparisons; s.columnComparisons -= b.columnComparisons
    s.rowComparisons -= b.rowComparisons; s.hashColumnAccesses -= b.hashColumnAccesses
    s
  }

  def sumSpill(xs: SpillStats*): SpillStats = { val s = new SpillStats; xs.foreach(s.add); s }

  /** Plan-level per-row ratios every engine workload reports. */
  def planMetrics(total: OvcStats, spill: SpillStats, rows: Long): Map[String, Double] = Map(
    "plans.spill_bytes_per_row" -> spill.bytesSpilled.toDouble / rows,
    "plans.spilled_rows_per_row" -> spill.rowsSpilled.toDouble / rows,
    "core.col_cmps_per_row_cmp" ->
      (if (total.rowComparisons == 0) 0.0
       else total.columnComparisons.toDouble / total.rowComparisons))

  /** Times `RunFile.write` and a full `RunFile.reader` drain over `runs`,
    * in a fresh directory under `java.io.tmpdir`.
    */
  def replayRuns(t: Tracer, runs: Seq[ArrayBuffer[CodedRow]], arity: Int,
                 payloadArity: Int): Unit = {
    val dir = RunFile.newTempDir("perfbench-runs")
    val spill = new SpillStats
    val paths = t("sort.runfile_write") {
      runs.map(r => RunFile.write(dir, arity, payloadArity, r.iterator, spill))
    }
    val n = t("sort.runfile_read") {
      paths.map(p => RunFile.reader(p, arity, payloadArity).size.toLong).sum
    }
    require(n == spill.rowsSpilled, s"run replay read $n rows, wrote ${spill.rowsSpilled}")
    Files.deleteIfExists(dir)
  }
}

/** Figure 3's "intersect distinct" over two inputs of `n` rows with 4 int64
  * key columns, `memRows` rows of memory per blocking operator: the
  * generator of `repro.benchlib.Fig3Harness`, so seed 42 gives its inputs.
  *
  * Untraced reps call `IntersectPlans.sortBased`/`hashBased`; traced reps
  * call the layers those plans are made of, with a span around each call
  * and around each drain of the iterator it returns.
  */
final class IntersectWorkload(sortPlan: Boolean, seed: Long, scale: Double) extends Workload {
  private val arity = 4
  private val n = math.max(1000, (1000000 * scale).toInt)
  private val memRows = math.max(100, n / 10)
  private val universe = 3L * n / 4
  private val base =
    math.max(2L, math.ceil(math.pow(universe.toDouble, 1.0 / arity)).toLong)

  private var ids1, ids2: Array[Long] = _
  private var t1, t2: Array[ERow] = _
  private var runs: Seq[ArrayBuffer[CodedRow]] = null

  val inputRows: Long = 2L * n
  val warmupReps: Int = 3

  /** Deletes what the rep left under `java.io.tmpdir`: a run that a merge
    * did not read to its end stays on disk until the JVM exits.
    */
  override def cleanup(): Unit = {
    def delete(f: java.io.File): Unit = {
      Option(f.listFiles).foreach(_.foreach(delete))
      f.delete()
    }
    Option(new java.io.File(System.getProperty("java.io.tmpdir")).listFiles).foreach(_.foreach(delete))
  }

  private def key(id: Long): Array[Long] = {
    val k = new Array[Long](arity)
    var v = id
    var i = arity - 1
    while (i >= 0) { k(i) = v % base; v /= base; i -= 1 }
    k
  }

  private def ids(lo: Long, hi: Long, s: Long): Array[Long] = {
    val rnd = new scala.util.Random(s)
    Array.fill(n)(lo + (rnd.nextDouble() * (hi - lo)).toLong)
  }

  def setup(): Unit = {
    ids1 = ids(0, n / 2, seed)
    ids2 = ids(n / 4, universe, seed + 1)
    t1 = ids1.map(id => ERow(key(id)))
    t2 = ids2.map(id => ERow(key(id)))
  }

  def reference(): (Long, Long) = {
    val in1 = new java.util.BitSet(universe.toInt)
    ids1.foreach(id => in1.set(id.toInt))
    val in2 = new java.util.BitSet(universe.toInt)
    ids2.foreach(id => in2.set(id.toInt))
    in1.and(in2)
    var sum = 0L
    var id = in1.nextSetBit(0)
    while (id >= 0) { sum += Engine.rowHash(key(id.toLong)); id = in1.nextSetBit(id + 1) }
    (in1.cardinality.toLong, sum)
  }

  def run(): Outcome = {
    val m =
      if (sortPlan) IntersectPlans.sortBased(() => t1.iterator, () => t2.iterator, arity, memRows)
      else IntersectPlans.hashBased(() => t1.iterator, () => t2.iterator, arity, memRows)
    val spill = new SpillStats
    spill.rowsSpilled = m.spilledRows
    spill.bytesSpilled = m.spilledBytes
    Outcome(m.outputRows, None, Engine.counters(m.stats, spill))
  }

  def traced(t: Tracer, verify: Boolean): (Outcome, Map[String, Double]) =
    if (sortPlan) tracedSort(t, verify) else tracedHash(t, verify)

  private def checksum(rows: Iterable[Array[Long]]): Long = rows.iterator.map(Engine.rowHash(_)).sum

  private def tracedSort(t: Tracer, verify: Boolean): (Outcome, Map[String, Double]) = {
    val s1, s2, sj = new OvcStats
    val sp1, sp2 = new SpillStats
    var gen1, gen2: OvcStats = null
    // The semi join stops when its left input ends, leaving the rest of the
    // right input's merge undone, so the merges are timed as they are pulled.
    val merged = Seq(ArrayBuffer.empty[CodedRow], ArrayBuffer.empty[CodedRow])
    def keep(i: Int, it: Iterator[CodedRow]) = if (verify) it.map { r => merged(i) += r; r } else it
    val out = t("plan") {
      val it1 = t("sort.rungen") { ExternalSort.sort(t1.iterator, arity, 0, memRows, s1, sp1, dedup = true) }
      gen1 = Engine.sumStats(s1)
      val it2 = t("sort.rungen") { ExternalSort.sort(t2.iterator, arity, 0, memRows, s2, sp2, dedup = true) }
      gen2 = Engine.sumStats(s2)
      t("ops.merge_join") {
        ArrayBuffer.from(MergeJoinOp(t.iterator("sort.merge", keep(0, it1)), arity,
                                 t.iterator("sort.merge", keep(1, it2)), arity, arity,
                                 JoinType.LeftSemi, sj))
      }
    }
    if (verify) (merged :+ out).foreach(OvcInvariants.verifyChain(_, arity))
    if (!verify) replay(t)

    val gen = Engine.sumStats(gen1, gen2)
    val merge = Engine.minus(Engine.sumStats(s1, s2), gen)
    val total = Engine.sumStats(s1, s2, sj)
    val spill = Engine.sumSpill(sp1, sp2)
    val m = Map(
      "plan_s" -> t.total("plan"),
      "sort.rungen_s" -> t.self("sort.rungen"),
      "sort.rungen_code_cmps_per_row" -> gen.codeComparisons.toDouble / inputRows,
      "sort.rungen_col_cmps_per_row" -> gen.columnComparisons.toDouble / inputRows,
      "sort.rungen_alloc_bytes_per_row" -> t.alloc("sort.rungen").toDouble / inputRows,
      "sort.merge_s" -> t.self("sort.merge"),
      "sort.merge_code_cmps_per_row" -> merge.codeComparisons.toDouble / inputRows,
      "sort.merge_col_cmps_per_row" -> merge.columnComparisons.toDouble / inputRows,
      "sort.runs" -> spill.runsWritten.toDouble,
      "sort.merge_levels" -> spill.mergeLevels.toDouble,
      "sort.spill_rows" -> spill.rowsSpilled.toDouble,
      "sort.spill_bytes" -> spill.bytesSpilled.toDouble,
      "sort.runfile_write_s" -> t.self("sort.runfile_write"),
      "sort.runfile_read_s" -> t.self("sort.runfile_read"),
      "ops.merge_join_s" -> t.self("ops.merge_join"),
      "ops.merge_join_code_cmps" -> sj.codeComparisons.toDouble,
      "ops.merge_join_col_cmps" -> sj.columnComparisons.toDouble,
    ) ++ Engine.planMetrics(total, spill, inputRows)
    val counters = Engine.counters(total, spill) ++
      Map("runs" -> spill.runsWritten, "merge_levels" -> spill.mergeLevels.toLong)
    (Outcome(out.size, Some(checksum(out.map(_.key))), counters), m)
  }

  /** Times `RunFile` on this plan's own runs: sorted, duplicate-free runs
    * for the sort plan, unsorted partitions for the hash plan. The check
    * pass skips it; the runs are built once, untimed.
    */
  private def replay(t: Tracer): Unit = {
    if (runs == null) runs = if (sortPlan) sortedRuns() else hashRuns()
    Engine.replayRuns(t, runs, arity, if (sortPlan) 0 else 1)
  }

  /** The sorted, duplicate-free runs that run generation writes: one per
    * `memRows` chunk of each input.
    */
  private def sortedRuns(): Seq[ArrayBuffer[CodedRow]] =
    Seq(t1, t2).flatMap(_.grouped(memRows)).map { chunk =>
      ArrayBuffer.from(ExternalSort.sort(chunk.iterator, arity, 0, chunk.length, new OvcStats,
                                     new SpillStats, dedup = true))
    }

  /** The unsorted partitions the hash plan spills: input rows in arrival
    * order, as `HashAgg` writes them (code 0, one payload column).
    */
  private def hashRuns(): Seq[ArrayBuffer[CodedRow]] =
    Seq(t1, t2).flatMap(_.grouped(memRows)).map { chunk =>
      ArrayBuffer.from(chunk.iterator.map(r => CodedRow(r.key, 0L, Array(1L))))
    }

  private def tracedHash(t: Tracer, verify: Boolean): (Outcome, Map[String, Double]) = {
    val sa, sj = new OvcStats
    val spa, spj = new SpillStats
    val out = t("plan") {
      val a1 = t("hash.agg_build") { HashAgg.groupCount(t1.iterator, arity, memRows, spa, sa) }
      val a2 = t("hash.agg_build") { HashAgg.groupCount(t2.iterator, arity, memRows, spa, sa) }
      val d1 = t("hash.agg_drain") { ArrayBuffer.from(a1) }
      val d2 = t("hash.agg_drain") { ArrayBuffer.from(a2) }
      t("hash.join") { ArrayBuffer.from(HashJoin.semiJoin(d2.iterator, d1.iterator, arity, memRows, spj, sj)) }
    }
    if (!verify) replay(t)

    val total = Engine.sumStats(sa, sj)
    val spill = Engine.sumSpill(spa, spj)
    val m = Map(
      "plan_s" -> t.total("plan"),
      "hash.agg_build_s" -> t.self("hash.agg_build"),
      "hash.agg_drain_s" -> t.self("hash.agg_drain"),
      "hash.agg_spill_rows" -> spa.rowsSpilled.toDouble,
      "hash.agg_spill_bytes" -> spa.bytesSpilled.toDouble,
      "hash.join_s" -> t.self("hash.join"),
      "hash.join_spill_rows" -> spj.rowsSpilled.toDouble,
      "hash.join_spill_bytes" -> spj.bytesSpilled.toDouble,
      "hash.col_accesses_per_row" -> total.hashColumnAccesses.toDouble / inputRows,
      "sort.runfile_write_s" -> t.self("sort.runfile_write"),
      "sort.runfile_read_s" -> t.self("sort.runfile_read"),
    ) ++ Engine.planMetrics(total, spill, inputRows)
    (Outcome(out.size, Some(checksum(out.map(_.key))), Engine.counters(total, spill)), m)
  }
}

/** `select a, b, d, count(*) from L join R on (a, b, c) where L.e < 700
  * group by a, b, d` over two sorted RLE tables, L on (a, b, c, e) and R on
  * (a, b, c, d). Plan: scan L -> filter -> merge join with scan R (inner,
  * join on 3 columns; d arrives as payload) -> segmented sort on (a, b) with
  * suffix d -> in-stream group count on (a, b, d). No blocking sort and no
  * spill: every operator is order-preserving and derives its output codes.
  */
final class PipelineWorkload(seed: Long, scale: Double) extends Workload {
  private val A = math.max(2, (100 * math.sqrt(scale)).toInt)
  private val B = A
  private val C = 160
  private val EDomain = 1000
  private val EKeep = 700
  private val DDomain = 8

  private var lKeys, rKeys: IndexedSeq[Array[Long]] = _
  private var lTable, rTable: RleTable = _

  def inputRows: Long = lKeys.size.toLong + rKeys.size
  val warmupReps: Int = 3

  private val pred: CodedRow => Boolean = r => r.key(3) < EKeep

  /** Sorted distinct values from [0, domain), 1 to `max` of them. */
  private def sortedDistinct(rnd: java.util.Random, domain: Int, max: Int): Array[Long] =
    Array.fill(1 + rnd.nextInt(max))(rnd.nextInt(domain).toLong).distinct.sorted

  /** L and R, generated in key order: each (a, b, c) occurs in L and in R
    * with probability 1/2; L gives it 1-4 values of e, R 1-3 values of d.
    */
  def setup(): Unit = {
    val rnd = new java.util.Random(seed)
    val l = ArrayBuffer.empty[Array[Long]]
    val r = ArrayBuffer.empty[Array[Long]]
    for (a <- 0 until A; b <- 0 until B; c <- 0 until C) {
      if (rnd.nextBoolean())
        sortedDistinct(rnd, EDomain, 4).foreach(e => l += Array(a.toLong, b.toLong, c.toLong, e))
      if (rnd.nextBoolean())
        sortedDistinct(rnd, DDomain, 3).foreach(d => r += Array(a.toLong, b.toLong, c.toLong, d))
    }
    lKeys = l.toIndexedSeq; rKeys = r.toIndexedSeq
    lTable = RleTable.fromSortedKeys(lKeys)
    rTable = RleTable.fromSortedKeys(rKeys)
  }

  def reference(): (Long, Long) = {
    val ds = new java.util.HashMap[(Long, Long, Long), ArrayBuffer[Long]]()
    rKeys.foreach(k => ds.computeIfAbsent((k(0), k(1), k(2)), _ => ArrayBuffer.empty) += k(3))
    val counts = new java.util.HashMap[(Long, Long, Long), java.lang.Long]()
    lKeys.foreach { k =>
      if (k(3) < EKeep) {
        val m = ds.get((k(0), k(1), k(2)))
        if (m != null) m.foreach(d => counts.merge((k(0), k(1), d), 1L, (x, y) => x + y))
      }
    }
    var sum = 0L
    counts.forEach((g, n) => sum += Engine.rowHash(Array(g._1, g._2, g._3), n))
    (counts.size.toLong, sum)
  }

  private def groupsOutcome(groups: Iterator[CodedRow], stats: OvcStats): Outcome = {
    var n, sum = 0L
    groups.foreach { g => n += 1; sum += Engine.rowHash(g.key, g.payload(0)) }
    Outcome(n, Some(sum), Engine.counters(stats, new SpillStats))
  }

  def run(): Outcome = {
    val stats = new OvcStats
    val joined = MergeJoinOp(FilterOp(lTable.scan(stats), pred), 4, rTable.scan(stats), 4, 3,
                             JoinType.Inner, stats)
    val regrouped = SegmentedSortOp(joined, 4, 2, 1, stats)
    groupsOutcome(GroupAggOp.countByOvc(regrouped, 3, 3, stats), stats)
  }

  def traced(t: Tracer, verify: Boolean): (Outcome, Map[String, Double]) = {
    val ss, sj, sg, sa = new OvcStats
    // Each stage drains its input before the next starts. The join reads R
    // to its end but for the rows past L's last key, a few at most.
    val stages = t("plan") {
      val l = t("ops.rle_scan") { ArrayBuffer.from(lTable.scan(ss)) }
      val r = t("ops.rle_scan") { ArrayBuffer.from(rTable.scan(ss)) }
      val f = t("ops.filter") { ArrayBuffer.from(FilterOp(l.iterator, pred)) }
      val j = t("ops.merge_join") {
        ArrayBuffer.from(MergeJoinOp(f.iterator, 4, r.iterator, 4, 3, JoinType.Inner, sj))
      }
      val s = t("ops.segmented_sort") { ArrayBuffer.from(SegmentedSortOp(j.iterator, 4, 2, 1, sg)) }
      val g = t("ops.group_agg") { ArrayBuffer.from(GroupAggOp.countByOvc(s.iterator, 3, 3, sa)) }
      Seq(l -> 4, r -> 4, f -> 4, j -> 4, s -> 3, g -> 3)
    }
    if (verify) stages.foreach { case (rows, arity) => OvcInvariants.verifyChain(rows, arity) }
    val total = Engine.sumStats(ss, sj, sg, sa)
    val m = Map(
      "plan_s" -> t.total("plan"),
      "ops.rle_scan_s" -> t.self("ops.rle_scan"),
      "ops.filter_s" -> t.self("ops.filter"),
      "ops.merge_join_s" -> t.self("ops.merge_join"),
      "ops.merge_join_code_cmps" -> sj.codeComparisons.toDouble,
      "ops.merge_join_col_cmps" -> sj.columnComparisons.toDouble,
      "ops.segmented_sort_s" -> t.self("ops.segmented_sort"),
      "ops.segmented_sort_col_cmps" -> sg.columnComparisons.toDouble,
      "ops.group_agg_s" -> t.self("ops.group_agg"),
      "ops.group_agg_col_cmps" -> sa.columnComparisons.toDouble,
    ) ++ Engine.planMetrics(total, new SpillStats, inputRows)
    (groupsOutcome(stages.last._1.iterator, total), m)
  }
}
