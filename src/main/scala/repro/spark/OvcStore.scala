package repro.spark

import java.io.File
import java.nio.file.Paths
import java.util

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read.{Batch, InputPartition, PartitionReader, PartitionReaderFactory, Scan, ScanBuilder}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.sql.util.CaseInsensitiveStringMap

import repro.core.{ERow, Ovc}
import repro.sort.RunFile

/** A sorted columnar store with prefix truncation (paper §4.10/§4.11): one
  * file per range partition in the engine's row format ([[RunFile]]), each
  * record stored as `(offset, values[offset..arity))`. A scan emits the
  * packed offset-value code straight from the stored offset and first suffix
  * value, with no column comparisons. [[OvcStore.write]] sorts and codes
  * inside executors through [[OvcSpark.sortedCoded]]; the read side is a
  * DataSourceV2 `TableProvider` (`spark.read.format("repro.spark.OvcStoreProvider")`)
  * with one input partition per file. Nothing deletes store files.
  */
object OvcStore {

  /** Write `df` (projected to `keyCols`, which must be integral) as a sorted,
    * prefix-truncated store under `dir`, one file per range partition.
    * Returns the per-partition row counts.
    */
  def write(df: DataFrame, keyCols: Seq[String], dir: String): Array[Long] = {
    val arity = keyCols.length
    RunFile.requireArity(arity)
    val d = new File(dir)
    require(d.isDirectory || d.mkdirs(), s"cannot create $dir")
    OvcSpark.sortedCoded(df.select(keyCols.map(col): _*), keyCols).mapPartitionsWithIndex { (pid, rows) =>
      val w = new RunFile.Writer(new File(d, f"part-$pid%05d.ovc").toPath, arity, 0, keyCols)
      try {
        rows.foreach { case (_, key, code) => w.write(key, Ovc.offsetOf(code, arity), ERow.NoPayload) }
        w.finish()
      } catch { case t: Throwable => w.abort(); throw t }
      Iterator.single(w.rows)
    }.collect()
  }

  def schemaOf(dir: String): StructType = {
    val f = files(dir).head.toPath
    val h = RunFile.header(f)
    require(h.payloadArity == 0 && h.names.length == h.arity, s"$f is not an OvcStore file")
    StructType(h.names.map(n => StructField(n, LongType, nullable = false)) :+
               StructField("ovc", LongType, nullable = false))
  }

  def files(dir: String): Array[File] = {
    val fs = Option(new File(dir).listFiles()).getOrElse(Array.empty[File]).filter(_.getName.endsWith(".ovc"))
    require(fs.nonEmpty, s"no OvcStore files (*.ovc) under $dir")
    fs.sortBy(_.getName)
  }
}

/** DataSourceV2 entry point: `spark.read.format(classOf[OvcStoreProvider].getName)
  * .option("path", dir).load()`.
  */
class OvcStoreProvider extends TableProvider {
  override def inferSchema(options: CaseInsensitiveStringMap): StructType =
    OvcStore.schemaOf(options.get("path"))

  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: util.Map[String, String]): Table =
    new OvcStoreTable(properties.get("path"), schema)
}

final class OvcStoreTable(path: String, schema: StructType) extends Table with SupportsRead {
  override def name(): String = s"ovcstore($path)"
  override def schema(): StructType = schema
  override def capabilities(): util.Set[TableCapability] =
    util.EnumSet.of(TableCapability.BATCH_READ)

  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new ScanBuilder {
      override def build(): Scan = new OvcStoreScan(path, schema)
    }
}

final case class OvcFilePartition(file: String, arity: Int) extends InputPartition

final class OvcStoreScan(path: String, val readSchema0: StructType) extends Scan with Batch {
  override def readSchema(): StructType = readSchema0
  override def toBatch: Batch = this
  override def description(): String = s"OvcStoreScan($path)"

  override def planInputPartitions(): Array[InputPartition] =
    OvcStore.files(path).map(f =>
      OvcFilePartition(f.getAbsolutePath, readSchema0.length - 1): InputPartition)

  override def createReaderFactory(): PartitionReaderFactory =
    new PartitionReaderFactory {
      override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
        partition match { case OvcFilePartition(file, arity) => new OvcFileReader(file, arity) }
    }
}

/** Scans one store file of `arity` key columns through the engine's row
  * decoder ([[RunFile.Reader]]), appending each row's rebuilt code.
  */
final class OvcFileReader(file: String, arity: Int) extends PartitionReader[InternalRow] {
  private[this] val rows = new RunFile.Reader(Paths.get(file), arity, 0)
  private[this] var current: InternalRow = null

  override def next(): Boolean = rows.advance() && {
    current = new GenericInternalRow(Array.tabulate[Any](arity + 1)(j => if (j < arity) rows.key(j) else rows.code))
    true
  }

  override def get(): InternalRow = current
  override def close(): Unit = rows.close()
}
