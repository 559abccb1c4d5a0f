package repro.hash

import java.nio.file.Path

import scala.collection.mutable

import repro.core.{ERow, OvcStats}
import repro.sort.{CloseableIterator, SpillFiles, SpillStats}

/** Hashable wrapper for a key array; computing the hash touches every column
  * (charged to `OvcStats.hashColumnAccesses` by callers), mirroring the
  * paper's point that hash-based execution needs N*K column accesses for the
  * hash function alone.
  */
final class LongsKey(val xs: Array[Long]) {
  override val hashCode: Int = {
    var h = 1
    var i = 0
    while (i < xs.length) { h = 31 * h + java.lang.Long.hashCode(xs(i) * 0x9e3779b97f4a7c15L); i += 1 }
    h
  }
  override def equals(o: Any): Boolean = o match {
    case k: LongsKey => java.util.Arrays.equals(xs, k.xs)
    case _ => false
  }
}

/** Level-salted spill-partition selection: recursion levels must not reuse
  * the parent's partitioning function, or an oversized partition would map
  * back into a single bucket and never shrink.
  */
private[hash] object SpillPart {
  def apply(h: Int, level: Int, nParts: Int): Int = {
    val mixed = Integer.rotateRight(h * 0x9e3779b9 + level * 0x85ebca77, level * 5 + 1)
    (mixed >>> 1) % nParts
  }
}

/** The spill side of one grace-hash level: rows go to `nParts` partitions,
  * buffered in batches and flushed through `files` as runs, so spill
  * accounting and file I/O are real. Rows are unsorted, so each is written
  * whole (offset 0), with the one payload column `payloadOf(row)`.
  */
private[hash] final class Partitions(nParts: Int, files: SpillFiles, spill: SpillStats,
                                     payloadOf: ERow => Long) {
  private[this] val batches = Array.fill(nParts)(new mutable.ArrayBuffer[ERow]())
  private[this] val runs = Array.fill(nParts)(mutable.ArrayBuffer.empty[Path])
  private[this] val payload = new Array[Long](1)

  def add(p: Int, r: ERow): Unit = {
    batches(p) += r
    if (batches(p).size >= 65536) flush(p)
  }

  private def flush(p: Int): Unit =
    if (batches(p).nonEmpty) {
      runs(p) += files.write(spill) { w =>
        batches(p).foreach { r => payload(0) = payloadOf(r); w.write(r.key, 0, payload) }
      }
      batches(p).clear()
    }

  /** Flushes every batch; returns each partition's runs. */
  def finish(): Array[Vector[Path]] = {
    (0 until nParts).foreach(flush)
    runs.map(_.toVector)
  }
}

private[hash] object Partitions {

  /** Reads back the rows of the runs `paths`, written through `files`. */
  def read(files: SpillFiles, paths: Seq[Path]): Iterator[ERow] =
    paths.iterator.flatMap(f => files.cursor(f).map(c => ERow(c.key, c.payload)))
}

/** A hash operator's result: `first`, then the result `part(p)` of each
  * spilled partition, built only when reached. Draining or closing it closes
  * the partition result in progress, then deletes the level's spill `files`
  * and the temp dir they made; `close` is idempotent.
  */
private[hash] final class SpilledResult(first: Iterator[ERow], nParts: Int,
                                        part: Int => Iterator[ERow], files: SpillFiles)
    extends CloseableIterator[ERow] {
  private[this] var cur = first
  private[this] var p = 0
  private[this] var open = true

  override def hasNext: Boolean = open && {
    while (!cur.hasNext && p < nParts) { closeCur(); cur = part(p); p += 1 }
    cur.hasNext || { close(); false }
  }

  override def next(): ERow = {
    if (!hasNext) throw new NoSuchElementException("hash result exhausted or closed")
    cur.next()
  }

  override def close(): Unit =
    if (open) {
      open = false
      try closeCur() finally files.delete()
    }

  private def closeCur(): Unit = cur match {
    case c: AutoCloseable => c.close()
    case _ =>
  }
}

/** Grace hash aggregation (group-count) with a bounded in-memory hash table
  * and partitioned spill to local files — the "hash aggregation" blocking
  * operators of the paper's Figure 2 hash plan.
  */
object HashAgg {

  val SpillPartitions: Int = 16

  /** Count rows per distinct key. Absorbs rows whose group is already (or
    * still fits) in memory; once the table holds `memGroups` groups, rows of
    * unseen groups spill to one of [[SpillPartitions]] files, processed
    * recursively after the input drains. Closing the result before it is
    * drained deletes the partition files not yet read, and the temp dir the
    * call made; draining it does the same.
    */
  def groupCount(input: Iterator[ERow], arity: Int, memGroups: Int,
                 spill: SpillStats, stats: OvcStats,
                 tmpDir: Path = null, level: Int = 0): CloseableIterator[ERow] = {
    require(memGroups > 0)
    val files = new SpillFiles(tmpDir, "hash-agg", arity, 1)
    try {
      val map = new mutable.HashMap[LongsKey, Array[Long]]()
      def weight(r: ERow): Long = if (r.payload.nonEmpty) r.payload(0) else 1L
      val parts = new Partitions(SpillPartitions, files, spill, weight)

      input.foreach { r =>
        stats.hashColumnAccesses += arity // hash function touches every column
        val k = new LongsKey(r.key)
        map.get(k) match {
          case Some(cell) => cell(0) += weight(r)
          case None =>
            if (map.size < memGroups) map.put(k, Array(weight(r)))
            else parts.add(SpillPart(k.hashCode, level, SpillPartitions), r)
        }
      }

      val runs = parts.finish()
      val inMemory = map.iterator.map { case (k, cell) => ERow(k.xs, Array(cell(0))) }
      new SpilledResult(inMemory, SpillPartitions, p =>
        if (runs(p).isEmpty) Iterator.empty
        else groupCount(Partitions.read(files, runs(p)), arity, memGroups, spill, stats, files.dir, level + 1),
        files)
    } catch { case t: Throwable => files.delete(); throw t }
  }
}

/** Grace hash (semi) join with a bounded build table — the "hash join"
  * blocking operator of the paper's Figure 2 hash plan. If the build side
  * exceeds memory, both sides are partitioned to local files (each row spilled
  * once) and the partitions are joined recursively.
  */
object HashJoin {

  val SpillPartitions: Int = 16

  /** Emit each probe row whose key occurs in the build input (both sides are
    * assumed distinct on the full key, as after duplicate removal). Closing
    * the result before it is drained deletes the partition files not yet
    * read, and the temp dir the call made; draining it does the same.
    */
  def semiJoin(build: Iterator[ERow], probe: Iterator[ERow], arity: Int,
               memRows: Int, spill: SpillStats, stats: OvcStats,
               tmpDir: Path = null, level: Int = 0): CloseableIterator[ERow] = {
    require(memRows > 0)
    val files = new SpillFiles(tmpDir, "hash-join", arity, 1)

    val inMem = new mutable.ArrayBuffer[ERow]()
    var overflow = false
    while (!overflow && build.hasNext) {
      inMem += build.next()
      if (inMem.size > memRows) overflow = true
    }

    if (!overflow) {
      val set = new mutable.HashSet[LongsKey]()
      inMem.foreach { r => stats.hashColumnAccesses += arity; set += new LongsKey(r.key) }
      new SpilledResult(probe.filter { r =>
        stats.hashColumnAccesses += arity
        set.contains(new LongsKey(r.key))
      }, 0, _ => Iterator.empty, files)
    } else
      try {
        def partition(rows: Iterator[ERow]): Array[Vector[Path]] = {
          val parts = new Partitions(SpillPartitions, files, spill, r =>
            if (r.payload.isEmpty) 0L else r.payload(0))
          rows.foreach { r =>
            stats.hashColumnAccesses += arity
            parts.add(SpillPart(new LongsKey(r.key).hashCode, level, SpillPartitions), r)
          }
          parts.finish()
        }

        val buildRuns = partition(inMem.iterator ++ build)
        val probeRuns = partition(probe)
        new SpilledResult(Iterator.empty, SpillPartitions, p =>
          semiJoin(Partitions.read(files, buildRuns(p)), Partitions.read(files, probeRuns(p)),
                   arity, memRows, spill, stats, files.dir, level + 1),
          files)
      } catch { case t: Throwable => files.delete(); throw t }
  }
}
