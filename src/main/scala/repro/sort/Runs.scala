package repro.sort

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, EOFException, FileInputStream, FileOutputStream}
import java.nio.file.{Files, Path}

import scala.collection.mutable.ArrayBuffer

import repro.core.{CodedRow, CodedStream, Ovc}

/** Spill accounting for external algorithms: the unit the paper's Figure 3
  * argues about is "rows spilled to temporary storage".
  */
final class SpillStats {
  var rowsSpilled: Long = 0L
  var runsWritten: Long = 0L
  var bytesSpilled: Long = 0L
  var mergeLevels: Int = 0

  def reset(): Unit = { rowsSpilled = 0; runsWritten = 0; bytesSpilled = 0; mergeLevels = 0 }

  def add(o: SpillStats): Unit = {
    rowsSpilled += o.rowsSpilled; runsWritten += o.runsWritten
    bytesSpilled += o.bytesSpilled; mergeLevels = math.max(mergeLevels, o.mergeLevels)
  }

  override def toString: String =
    s"SpillStats(rows=$rowsSpilled, runs=$runsWritten, bytes=$bytesSpilled, levels=$mergeLevels)"
}

/** The one row format of spill runs, hash partitions and OvcStore files
  * (paper §4.10-4.11): a header (magic "OVC", version, arity, payload arity,
  * column names), then per row an offset byte, `key[offset..arity)` and the
  * payload, then the reserved offset [[EndOfRun]]. The offset is the prefix
  * the row shares with the previous one (0 for the first), so a reader
  * rebuilds each code from it and the first stored value, comparing nothing.
  * Spill runs ([[spillRun]], [[Cursor]], [[reader]]) are deleted once read
  * back or at JVM exit; a [[Reader]] leaves its file in place.
  */
object RunFile {

  /** The largest arity a row's offset byte can hold besides [[EndOfRun]]. */
  val MaxArity: Int = 254
  private val EndOfRun = 255
  private val Magic = 0x4f5643 // "OVC"
  private val Version = '2'    // "OVC1" was OvcStore's format before this one

  def newTempDir(prefix: String): Path = {
    val d = Files.createTempDirectory(prefix)
    d.toFile.deleteOnExit()
    d
  }

  def requireArity(arity: Int): Unit =
    require(arity >= 0 && arity <= MaxArity, s"arity $arity lies outside [0, $MaxArity]: a row's offset byte cannot hold it")

  /** Writes rows to a new file at `path` straight from the caller's arrays,
    * each with its offset; the first row's must be 0. Call `finish` after the
    * last row.
    */
  final class Writer(val path: Path, arity: Int, payloadArity: Int, names: Seq[String] = Nil) {
    requireArity(arity)
    require(names.isEmpty || names.length == arity, s"${names.length} column names for arity $arity")
    private[this] val out =
      new DataOutputStream(new BufferedOutputStream(new FileOutputStream(path.toFile), 1 << 16))
    private[this] var n = 0L
    Seq(Magic << 8 | Version, arity, payloadArity, names.length).foreach(out.writeInt)
    names.foreach(out.writeUTF)

    def rows: Long = n

    def write(key: Array[Long], offset: Int, payload: Array[Long]): Unit = {
      if (offset < 0 || offset > arity || (n == 0 && offset != 0))
        throw new IllegalArgumentException(s"row $n of $path: offset $offset outside [0, $arity] or first row's not 0")
      out.writeByte(offset)
      var i = offset
      while (i < arity) { out.writeLong(key(i)); i += 1 }
      i = 0
      while (i < payloadArity) { out.writeLong(payload(i)); i += 1 }
      n += 1
    }

    def finish(): Unit = try out.writeByte(EndOfRun) finally out.close()

    /** Gives up the file: closes and deletes it. */
    def abort(): Unit = try out.close() finally Files.deleteIfExists(path)
  }

  /** Writes one spill run under `dir` through `body` and books it in `spill`;
    * returns its path. A run that fails part way is deleted.
    */
  def spillRun(dir: Path, arity: Int, payloadArity: Int, spill: SpillStats)(body: Writer => Unit): Path = {
    requireArity(arity) // before the file exists
    val path = Files.createTempFile(dir, "run", ".bin")
    path.toFile.deleteOnExit()
    val w = new Writer(path, arity, payloadArity)
    try { body(w); w.finish() } catch { case t: Throwable => w.abort(); throw t }
    spill.rowsSpilled += w.rows
    spill.runsWritten += 1
    spill.bytesSpilled += Files.size(path)
    path
  }

  /** Write `rows` as one spill run; returns the file path. Updates `spill`.
    * A row is stored at its code's offset, cut to the prefix its key shares
    * with the previous row: a code not relative to that row, such as a dummy
    * 0, costs bytes but never loses a column.
    */
  def write(dir: Path, arity: Int, payloadArity: Int,
            rows: Iterator[CodedRow], spill: SpillStats): Path =
    spillRun(dir, arity, payloadArity, spill) { w =>
      val prev = new Array[Long](arity)
      while (rows.hasNext) {
        val r = rows.next()
        val limit = if (w.rows == 0) 0 else Ovc.offsetOf(r.code, arity)
        var off = 0
        while (off < limit && r.key(off) == prev(off)) off += 1
        w.write(r.key, off, r.payload)
        System.arraycopy(r.key, 0, prev, 0, arity)
      }
    }

  final case class Header(arity: Int, payloadArity: Int, names: Seq[String])

  /** The header of the file at `path`; fails, naming the file, unless it is
    * of this format and version.
    */
  def header(path: Path): Header = {
    val in = open(path)
    try readHeader(path, in) finally in.close()
  }

  private def open(path: Path) =
    new DataInputStream(new BufferedInputStream(new FileInputStream(path.toFile), 1 << 16))

  private def readHeader(path: Path, in: DataInputStream): Header =
    try {
      val m = in.readInt()
      require((m >>> 8) == Magic, s"$path is not a row file")
      require((m & 0xff) == Version, s"$path has row format version ${(m & 0xff).toChar}, not $Version")
      Header(in.readInt(), in.readInt(), Vector.fill(in.readInt())(in.readUTF()))
    } catch { case _: EOFException => throw new IllegalArgumentException(s"$path is not a row file") }

  /** Reads a file back one row at a time into a key and a payload array it
    * owns and reuses: no allocation and no column comparison per row. Fails,
    * naming the file, unless its header gives this arity and payload arity.
    * Closes itself once exhausted; `close` is idempotent.
    */
  class Reader(val path: Path, arity: Int, payloadArity: Int) extends CodedStream with AutoCloseable {
    private[this] val in = open(path)
    try {
      val h = readHeader(path, in)
      require(h.arity == arity && h.payloadArity == payloadArity,
              s"$path holds arity ${h.arity}, payload arity ${h.payloadArity}, not $arity and $payloadArity")
    } catch { case t: Throwable => in.close(); throw t }

    override val key: Array[Long] = new Array[Long](arity)
    override val payload: Array[Long] =
      if (payloadArity == 0) Array.emptyLongArray else new Array[Long](payloadArity)
    private[this] var c = 0L
    private[this] var isOpen = true

    override def code: Long = c

    override protected def step(): Boolean =
      isOpen && {
        val off = in.readUnsignedByte()
        if (off == EndOfRun) { close(); false }
        else {
          if (off > arity) throw new IllegalStateException(s"$path: row offset $off exceeds arity $arity")
          var i = off
          while (i < arity) { key(i) = in.readLong(); i += 1 }
          c = if (off == arity) 0L else Ovc.pack(arity, off, key(off))
          i = 0
          while (i < payloadArity) { payload(i) = in.readLong(); i += 1 }
          true
        }
      }

    override def close(): Unit = {
      unfetch()
      if (isOpen) { isOpen = false; in.close() }
    }
  }

  /** A [[Reader]] that deletes its spill run once exhausted or closed: the
    * decoder behind [[reader]] and the sort's merges.
    */
  final class Cursor(run: Path, arity: Int, payloadArity: Int)
      extends Reader(run, arity, payloadArity) with CloseableIterator[CodedRow] {
    override def close(): Unit = try super.close() finally Files.deleteIfExists(path)
  }

  /** Streams a run back; its iterator view returns rows with their own
    * arrays. The file is deleted once fully consumed or closed.
    */
  def reader(path: Path, arity: Int, payloadArity: Int): Cursor = new Cursor(path, arity, payloadArity)
}

/** The spill files of one operator: the directory they go to (a new temp dir,
  * made on first use, unless `tmpDir` is given), the runs written there and
  * the cursors opened on them. [[delete]] closes those and
  * deletes the runs, then the directory if it made it.
  */
final class SpillFiles(tmpDir: Path, prefix: String, arity: Int, payloadArity: Int) {
  private[this] var ownDir: Path = null
  private[this] val written = ArrayBuffer.empty[Path]
  private[this] val opened = ArrayBuffer.empty[RunFile.Cursor]

  def dir: Path = {
    if (tmpDir != null) tmpDir
    else {
      if (ownDir == null) ownDir = RunFile.newTempDir(prefix)
      ownDir
    }
  }

  /** Writes one run through `body` ([[RunFile.spillRun]]); returns its path. */
  def write(spill: SpillStats)(body: RunFile.Writer => Unit): Path = {
    val path = RunFile.spillRun(dir, arity, payloadArity, spill)(body)
    written += path
    path
  }

  /** Opens `run` for reading; [[delete]] closes it. */
  def cursor(run: Path): RunFile.Cursor = {
    val c = RunFile.reader(run, arity, payloadArity)
    opened += c
    c
  }

  /** Closes every cursor, then deletes the runs and the own dir. */
  def delete(): Unit = {
    try opened.foreach(_.close())
    finally written.foreach(Files.deleteIfExists)
    if (ownDir != null) Files.deleteIfExists(ownDir)
  }
}

/** An iterator that holds resources, such as spill files, until it is
  * drained or closed. `close` is idempotent.
  */
trait CloseableIterator[+A] extends Iterator[A] with AutoCloseable
