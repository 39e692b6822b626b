//! `ctms-serve`: one [`ctms_bench::serve`] session over stdin/stdout.

fn main() {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    ctms_bench::serve::run(stdin.lock(), &mut stdout.lock());
}
