package repro.sort

import java.nio.file.Path

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
  * Merging allocates nothing per row read back either: each run is read by a
  * [[RunFile.Cursor]] into arrays it reuses, the merge tree's entries refer to
  * those arrays, intermediate merge levels write their runs straight from the
  * tree, and the output stream copies a key and payload into a new row only
  * for the rows it returns.
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
    if (!input.hasNext) return new SortedStream(tree, dedup, () => ()) // no spill

    val files = new SpillFiles(tmpDir, "ovc-sort", arity, payloadArity)
    try {
      var runs = Vector(writeRun(tree, arity, files, dedup, spill))
      while (input.hasNext) {
        fill()
        runs :+= writeRun(tree, arity, files, dedup, spill)
      }

      // Intermediate merge levels only when the run count exceeds the fan-in.
      while (runs.size > fanIn) {
        spill.mergeLevels += 1
        runs = runs.grouped(fanIn)
          .map(g => writeRun(merge(g, files, arity, stats), arity, files, dedup, spill))
          .toVector
      }

      new SortedStream(merge(runs, files, arity, stats), dedup, () => files.delete())
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

  /** Moves `tree` to its next row to emit, past duplicates under dedup: the
    * sort's one duplicate skip. Returns false when the tree is exhausted.
    */
  private def more(tree: LoserTree, dedup: Boolean): Boolean = {
    if (dedup) tree.skipDups()
    tree.hasNext
  }

  /** Writes the tree's sorted rows as one run, straight from its arrays, each
    * prefix-truncated at its code's offset; returns the file path.
    */
  private def writeRun(tree: LoserTree, arity: Int, files: SpillFiles, dedup: Boolean,
                       spill: SpillStats): Path =
    files.write(spill) { w =>
      while (more(tree, dedup)) {
        val e = tree.winner
        w.write(tree.key(e), Ovc.offsetOf(tree.code(e), arity), tree.payload(e))
        tree.advance()
      }
    }

  /** A tree merging `runs`, each read back by a cursor into reused arrays. */
  private def merge(runs: Seq[Path], files: SpillFiles, arity: Int, stats: OvcStats): LoserTree =
    LoserTree.merge(runs.map(files.cursor).toIndexedSeq, arity, stats)

  /** The sort's output stream over `tree`, past duplicates under dedup. A row
    * of a merge tree is copied when it is returned, and only then; `release`
    * runs once, when the stream is drained or closed.
    */
  private final class SortedStream(tree: LoserTree, dedup: Boolean, release: () => Unit)
      extends CloseableIterator[CodedRow] {
    private[this] var open = true

    override def hasNext: Boolean = open && (more(tree, dedup) || { close(); false })
    override def next(): CodedRow = {
      if (!hasNext) throw new NoSuchElementException("sorted stream exhausted or closed")
      tree.next()
    }
    override def close(): Unit = if (open) { open = false; release() }
  }
}
