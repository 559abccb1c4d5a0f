package repro.sort

import java.nio.file.{Files, Path}

import scala.collection.mutable.ArrayBuffer

import repro.core.{CodedRow, ERow, Ovc, OvcStats}

/** External merge sort with tree-of-losers priority queues and offset-value
  * coding (paper §3, §5): run generation merges single-row runs (so OVCs in
  * each spilled run are a by-product), runs spill to real local files, and a
  * (possibly multi-level) merge with a loser tree produces the sorted, coded
  * output stream.
  *
  * Run generation allocates nothing per row: one row-buffer [[LoserTree]]
  * holds references to up to `memRows` input rows, is refilled for every
  * chunk, and each run goes from the tree's arrays straight to its file.
  *
  * With `dedup = true` this is the paper's "in-sort aggregation" for duplicate
  * removal [10]: rows whose code has offset == arity are dropped both before
  * spilling (run generation) and in every merge, so duplicates are never
  * spilled twice and the final stream is distinct. Dropping a duplicate never
  * perturbs the code chain because the duplicate code 0 is the identity of the
  * max-fold of §4.1.
  */
object ExternalSort {

  val DefaultFanIn: Int = 512

  /** Sort `input`; returns the sorted coded stream. Closing the stream before
    * it is drained deletes the sort's remaining run files and its temp dir;
    * draining it does the same.
    *
    * Every input row must have `arity` key columns with values in [0, 2^48)
    * and `payloadArity` payload columns; the sort throws
    * `IllegalArgumentException` naming the first row that does not.
    *
    * @param memRows  rows that fit in "memory" — the run-generation chunk size
    * @param dedup    drop duplicate rows as early as possible (in-sort dedup)
    * @param fanIn    maximum merge fan-in before an extra merge level is added
    * @param tmpDir   directory for run files; by default a new temp dir that
    *                 the sort deletes when its stream is drained or closed
    */
  def sort(input: Iterator[ERow], arity: Int, payloadArity: Int, memRows: Int,
           stats: OvcStats, spill: SpillStats, dedup: Boolean = false,
           fanIn: Int = DefaultFanIn, tmpDir: Path = null): CloseableIterator[CodedRow] = {
    require(memRows > 0, "memRows must be positive")
    val tree = LoserTree.forRows(arity, stats)
    var rowNo = 0L

    // Buffers the next chunk of up to memRows rows and sorts it.
    def fill(): Unit = {
      tree.clear()
      while (tree.rows < memRows && input.hasNext) {
        val r = input.next()
        checkRow(r, rowNo, arity, payloadArity)
        tree.add(r.key, r.payload)
        rowNo += 1
      }
      tree.sortRows(0)
    }

    fill()
    if (!input.hasNext) return new SortedStream(dedupFilter(tree, dedup), () => ()) // no spill

    val files = new SortFiles(tmpDir, arity, payloadArity)
    try {
      var runs = Vector(writeRun(tree, files, arity, payloadArity, dedup, spill))
      while (input.hasNext) {
        fill()
        runs :+= writeRun(tree, files, arity, payloadArity, dedup, spill)
      }

      // Intermediate merge levels only when the run count exceeds the fan-in.
      while (runs.size > fanIn) {
        spill.mergeLevels += 1
        runs = runs
          .grouped(fanIn)
          .map { g =>
            val merged = dedupFilter(new LoserTree(g.map(files.reader), arity, stats), dedup)
            val path = RunFile.write(files.dir, arity, payloadArity, merged, spill)
            files.written += path
            path
          }
          .toVector
      }

      new SortedStream(dedupFilter(new LoserTree(runs.map(files.reader), arity, stats), dedup),
                       () => files.delete())
    } catch {
      case t: Throwable => files.delete(); throw t
    }
  }

  /** Fails fast on a row the coded sort cannot order correctly. */
  private def checkRow(r: ERow, rowNo: Long, arity: Int, payloadArity: Int): Unit = {
    val key = r.key
    if (key.length != arity)
      throw new IllegalArgumentException(
        s"row $rowNo: key has ${key.length} columns, the sort's arity is $arity")
    if (r.payload.length != payloadArity)
      throw new IllegalArgumentException(
        s"row $rowNo: payload has ${r.payload.length} columns, the sort's payload arity is $payloadArity")
    var i = 0
    while (i < arity) {
      val v = key(i)
      if ((v >>> Ovc.ValueBits) != 0L)
        throw new IllegalArgumentException(
          s"row $rowNo: key column $i value $v lies outside [0, 2^${Ovc.ValueBits})")
      i += 1
    }
  }

  /** Writes the tree's sorted rows as one run, dropping duplicates under
    * dedup; returns the file path.
    */
  private def writeRun(tree: LoserTree, files: SortFiles, arity: Int, payloadArity: Int,
                       dedup: Boolean, spill: SpillStats): Path = {
    val w = new RunFile.Writer(files.dir, arity, payloadArity, spill)
    files.written += w.path
    try {
      while (tree.hasNext) {
        val e = tree.winner
        val code = tree.code(e)
        if (!dedup || !Ovc.isDup(code)) w.write(tree.key(e), code, tree.payload(e))
        tree.advance()
      }
    } catch { case t: Throwable => w.abort(); throw t }
    w.finish()
  }

  private def dedupFilter(it: Iterator[CodedRow], dedup: Boolean): Iterator[CodedRow] =
    if (dedup) it.filterNot(r => Ovc.isDup(r.code)) else it

  /** The run files of one sort, the readers opened on them, and the temp dir
    * it made for them, if any.
    */
  private final class SortFiles(tmpDir: Path, arity: Int, payloadArity: Int) {
    private[this] val ownDir = tmpDir == null
    val dir: Path = if (ownDir) RunFile.newTempDir("ovc-sort") else tmpDir
    val written = ArrayBuffer.empty[Path]
    private[this] val readers = ArrayBuffer.empty[CloseableIterator[CodedRow]]

    def reader(run: Path): CloseableIterator[CodedRow] = {
      val r = RunFile.reader(run, arity, payloadArity)
      readers += r
      r
    }

    /** Closes every reader, then deletes the files and the own temp dir. */
    def delete(): Unit = {
      try readers.foreach(_.close())
      finally written.foreach(Files.deleteIfExists)
      if (ownDir) Files.deleteIfExists(dir)
    }
  }

  /** The sort's output stream: `release` runs once, when the stream is
    * drained or closed.
    */
  private final class SortedStream(rows: Iterator[CodedRow], release: () => Unit)
      extends CloseableIterator[CodedRow] {
    private[this] var open = true

    override def hasNext: Boolean = open && (rows.hasNext || { close(); false })
    override def next(): CodedRow = {
      if (!open) throw new NoSuchElementException("sorted stream closed")
      rows.next()
    }
    override def close(): Unit = if (open) { open = false; release() }
  }
}
