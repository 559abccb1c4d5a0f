package repro.sort

import java.nio.file.Path

import repro.core.{CodedRow, CodedStream, ERow, Ovc, OvcStats}

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
  * those arrays, and intermediate merge levels write their runs straight from
  * the tree. The output stream is a [[CodedStream]] over the final tree: read
  * as a cursor it allocates nothing per row; its iterator view copies each
  * row it returns.
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
           fanIn: Int = DefaultFanIn, tmpDir: Path = null): CodedStream with CloseableIterator[CodedRow] = {
    require(memRows > 0, "memRows must be positive")
    val tree = LoserTree.forRows(arity, stats, dedup)
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
    if (!input.hasNext) return new SortedStream(tree, () => ()) // no spill

    val files = new SpillFiles(tmpDir, "ovc-sort", arity, payloadArity)
    try {
      var runs = Vector(writeRun(tree, arity, files, spill))
      while (input.hasNext) {
        fill()
        runs :+= writeRun(tree, arity, files, spill)
      }

      // Intermediate merge levels only when the run count exceeds the fan-in.
      while (runs.size > fanIn) {
        spill.mergeLevels += 1
        runs = runs.grouped(fanIn)
          .map(g => writeRun(merge(g, files, arity, stats, dedup), arity, files, spill))
          .toVector
      }

      new SortedStream(merge(runs, files, arity, stats, dedup), () => files.delete())
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

  /** Writes the tree's sorted rows as one run, straight from its arrays, each
    * prefix-truncated at its code's offset; returns the file path.
    */
  private def writeRun(tree: LoserTree, arity: Int, files: SpillFiles, spill: SpillStats): Path =
    files.write(spill) { w =>
      while (tree.advance()) w.write(tree.key, Ovc.offsetOf(tree.code, arity), tree.payload)
    }

  /** A tree merging `runs`, each read back by a cursor into reused arrays. */
  private def merge(runs: Seq[Path], files: SpillFiles, arity: Int, stats: OvcStats,
                    dedup: Boolean): LoserTree =
    LoserTree.merge(runs.map(files.cursor).toIndexedSeq, arity, stats, dedup)

  /** The sort's output stream: the current row of `tree`, which drops
    * duplicates under dedup. `release` runs once, when the stream is drained
    * or closed.
    */
  private final class SortedStream(tree: LoserTree, release: () => Unit)
      extends CodedStream with CloseableIterator[CodedRow] {
    private[this] var open = true

    override protected def step(): Boolean = open && (tree.advance() || { close(); false })
    override def key: Array[Long] = tree.key
    override def code: Long = tree.code
    override def payload: Array[Long] = tree.payload
    override def close(): Unit = {
      unfetch()
      if (open) { open = false; release() }
    }
  }
}
