//! Format-aware indexing: the paper's "more file formats" future-work item.
//!
//! Builds a small mixed-format corpus (plain text, Markdown, HTML, CSV, WPX
//! word-processor documents, source code and one binary blob), indexes it
//! twice — once treating everything as plain text, once with format
//! detection and extraction enabled — and shows how the two indices differ.
//!
//! ```text
//! cargo run --example file_formats
//! ```

use dsearch::core::{Configuration, FormatMode, GeneratorOptions, Implementation, IndexGenerator};
use dsearch::formats::{detect_format, WpxWriter};
use dsearch::query::Query;
use dsearch::server::IndexSnapshot;
use dsearch::text::Term;
use dsearch::vfs::{FileSystem, MemFs, VPath};

fn build_mixed_corpus() -> MemFs {
    let fs = MemFs::new();
    fs.add_file(
        &VPath::new("docs/plain.txt"),
        b"plain text notes about the parallel index generator".to_vec(),
    )
    .unwrap();
    fs.add_file(
        &VPath::new("docs/readme.md"),
        b"# Desktop search\n\nThe *inverted index* maps terms to files.\n".to_vec(),
    )
    .unwrap();
    fs.add_file(
        &VPath::new("web/report.html"),
        b"<html><head><style>.x{color:red}</style></head>\
          <body><h1>Quarterly report</h1><p>Revenue &amp; growth</p>\
          <script>trackVisit()</script></body></html>"
            .to_vec(),
    )
    .unwrap();
    fs.add_file(
        &VPath::new("data/metrics.csv"),
        b"platform,cores,speedup\nfourcore,4,4.74\nmanycore,32,3.50\n".to_vec(),
    )
    .unwrap();
    let mut wpx = WpxWriter::new("Meeting minutes");
    wpx.paragraph("The replicated index design wins on the manycore machine");
    wpx.object();
    fs.add_file(&VPath::new("docs/minutes.wpx"), wpx.finish().into_bytes()).unwrap();
    fs.add_file(
        &VPath::new("src/generator.rs"),
        b"fn run_index_generator(cfg: &RunConfig) -> RunReport { todo!() }".to_vec(),
    )
    .unwrap();
    fs.add_file(&VPath::new("bin/cache.blob"), vec![0u8, 1, 2, 3, 255, 254]).unwrap();
    fs
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fs = build_mixed_corpus();

    // Show what the detector thinks of each file.
    println!("detected formats:");
    for path in fs.all_files() {
        let bytes = fs.read(&path)?;
        let (format, hint) = detect_format(path.as_str(), &bytes);
        println!("  {:<22} {:<12} (via {hint:?})", path.as_str(), format.to_string());
    }

    // Index once as raw plain text (the paper's setup) ...
    let raw = IndexGenerator::default().run(
        &fs,
        &VPath::root(),
        Implementation::ReplicateJoin,
        Configuration::new(2, 0, 0),
    )?;
    let (raw_index, _) = raw.outcome.into_single_index();

    // ... and once with format detection and extraction.
    let mut options = GeneratorOptions::paper_defaults();
    options.formats = FormatMode::DetectAndExtract;
    let aware = IndexGenerator::new(options).run(
        &fs,
        &VPath::root(),
        Implementation::ReplicateJoin,
        Configuration::new(2, 0, 0),
    )?;
    let (aware_index, docs) = aware.outcome.into_single_index();

    println!("\nraw index:          {}", raw_index.stats());
    println!("format-aware index: {}", aware_index.stats());

    // Markup noise disappears, real content stays searchable.
    for term in ["html", "style", "script"] {
        println!(
            "  term {term:>7}: raw={} aware={}",
            raw_index.contains_term(&Term::from(term)),
            aware_index.contains_term(&Term::from(term)),
        );
    }

    let snapshot = IndexSnapshot::from_index(aware_index, docs, 1);
    for raw_query in ["revenue growth", "run index generator", "replicated manycore OR minutes"] {
        let (results, _) = snapshot.evaluate(&Query::parse(raw_query)?, 20, &snapshot.searcher());
        println!("\nquery {raw_query:?} → {} hit(s)", results.len());
        for hit in results.hits() {
            println!("  {}", hit.path);
        }
    }
    Ok(())
}
