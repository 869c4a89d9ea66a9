/**
 * @file
 * pmodv-fuzz: the cross-scheme differential fuzzer CLI.
 *
 *   pmodv-fuzz [--iters N] [--ops N] [--seed S] [--threads N]
 *              [--domains N] [--max-live N] [--max-pages N]
 *              [--cores K]
 *              [--inject-bug none|mpk-drop-revoke|batch-reset-stat]
 *              [--out FILE] [--print-ops] [--quiet]
 *       Run N generated episodes (episode i uses seed S+i) through
 *       all six schemes and the equivalence oracles. On the first
 *       violation, shrink to a minimal reproducer, print it as a
 *       replayable op list, and exit 1.
 *
 *   pmodv-fuzz --replay FILE [--inject-bug ...]
 *       Replay a previously printed (or corpus) op file once.
 *
 * Exit codes: 0 = clean, 1 = oracle violation, 2 = usage error.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "testing/differ.hh"
#include "testing/generator.hh"
#include "testing/shrink.hh"

using namespace pmodv;
using namespace pmodv::testing;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: pmodv-fuzz [--iters N] [--ops N] [--seed S]\n"
        "                  [--threads N] [--domains N] [--max-live N]\n"
        "                  [--max-pages N] [--cores K]\n"
        "                  [--inject-bug none|mpk-drop-revoke|\n"
        "                                batch-reset-stat]\n"
        "                  [--out FILE] [--print-ops] [--quiet]\n"
        "       pmodv-fuzz --replay FILE [--inject-bug ...]\n");
    return 2;
}

struct Options
{
    std::uint64_t iters = 100;
    std::uint64_t seed = 1;
    GenConfig gen;
    DiffConfig diff;
    std::string replayPath;
    std::string outPath;
    bool printOps = false;
    bool quiet = false;
};

/**
 * Shrink against "the same oracle still fires first" so the minimizer
 * cannot wander onto an unrelated failure, then report the result.
 */
int
reportFailure(const Options &opt, std::vector<Op> ops,
              const DiffResult &result, std::uint64_t episode_seed,
              bool generated)
{
    const std::string oracle = result.firstOracle();
    std::fprintf(stderr, "FAIL: %s\n", result.summary().c_str());

    const auto fails = [&](const std::vector<Op> &candidate) {
        DiffResult r = runDifferential(candidate, opt.diff);
        return r.firstOracle() == oracle;
    };
    const std::vector<Op> shrunk = shrinkOps(std::move(ops), fails);
    const DiffResult final_result = runDifferential(shrunk, opt.diff);

    std::ostream *out = &std::cout;
    std::ofstream file;
    if (!opt.outPath.empty()) {
        file.open(opt.outPath);
        if (file)
            out = &file;
        else
            std::fprintf(stderr, "cannot write %s; printing to stdout\n",
                         opt.outPath.c_str());
    }
    *out << "# pmodv-fuzz reproducer (" << shrunk.size() << " ops)\n";
    if (generated)
        *out << "# seed=" << episode_seed << " ops=" << opt.gen.numOps
             << " threads=" << opt.gen.numThreads << "\n";
    if (!final_result.violations.empty())
        *out << "# " << final_result.violations[0].toString() << "\n";
    printOps(*out, shrunk);
    if (out == &file && !opt.quiet)
        std::fprintf(stderr, "reproducer (%zu ops) written to %s\n",
                     shrunk.size(), opt.outPath.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--iters"))
            opt.iters = std::strtoull(need("--iters"), nullptr, 10);
        else if (!std::strcmp(argv[i], "--ops"))
            opt.gen.numOps = std::strtoull(need("--ops"), nullptr, 10);
        else if (!std::strcmp(argv[i], "--seed"))
            opt.seed = std::strtoull(need("--seed"), nullptr, 10);
        else if (!std::strcmp(argv[i], "--threads"))
            opt.gen.numThreads = static_cast<unsigned>(
                std::strtoul(need("--threads"), nullptr, 10));
        else if (!std::strcmp(argv[i], "--domains"))
            opt.gen.domainPool = static_cast<unsigned>(
                std::strtoul(need("--domains"), nullptr, 10));
        else if (!std::strcmp(argv[i], "--max-live"))
            opt.gen.maxLive = static_cast<unsigned>(
                std::strtoul(need("--max-live"), nullptr, 10));
        else if (!std::strcmp(argv[i], "--max-pages"))
            opt.gen.maxPages = static_cast<std::uint32_t>(
                std::strtoul(need("--max-pages"), nullptr, 10));
        else if (!std::strcmp(argv[i], "--cores"))
            opt.diff.topology.numCores = static_cast<unsigned>(
                std::strtoul(need("--cores"), nullptr, 10));
        else if (!std::strcmp(argv[i], "--inject-bug"))
            opt.diff.inject = injectionFromName(need("--inject-bug"));
        else if (!std::strcmp(argv[i], "--replay"))
            opt.replayPath = need("--replay");
        else if (!std::strcmp(argv[i], "--out"))
            opt.outPath = need("--out");
        else if (!std::strcmp(argv[i], "--print-ops"))
            opt.printOps = true;
        else if (!std::strcmp(argv[i], "--quiet"))
            opt.quiet = true;
        else
            return usage();
    }
    if (!opt.gen.numOps || !opt.gen.numThreads || !opt.gen.domainPool ||
        !opt.diff.topology.numCores ||
        opt.diff.topology.numCores > arch::kMaxCores)
        return usage();

    if (!opt.replayPath.empty()) {
        const std::vector<Op> ops = loadOpsFile(opt.replayPath);
        const DiffResult result = runDifferential(ops, opt.diff);
        if (!result.ok())
            return reportFailure(opt, ops, result, 0,
                                 /*generated=*/false);
        if (!opt.quiet)
            std::printf("replay of %zu ops: all oracles passed\n",
                        ops.size());
        return 0;
    }

    for (std::uint64_t i = 0; i < opt.iters; ++i) {
        const std::uint64_t episode_seed = opt.seed + i;
        const std::vector<Op> ops = generateOps(episode_seed, opt.gen);
        if (opt.printOps)
            printOps(std::cout, ops);
        const DiffResult result = runDifferential(ops, opt.diff);
        if (!result.ok()) {
            std::fprintf(stderr, "episode %llu (seed %llu) failed\n",
                         static_cast<unsigned long long>(i),
                         static_cast<unsigned long long>(episode_seed));
            return reportFailure(opt, ops, result, episode_seed,
                                 /*generated=*/true);
        }
        if (!opt.quiet && (i + 1) % 100 == 0)
            std::printf("%llu/%llu episodes clean\n",
                        static_cast<unsigned long long>(i + 1),
                        static_cast<unsigned long long>(opt.iters));
    }
    if (!opt.quiet)
        std::printf("%llu episodes x %zu ops: all oracles passed\n",
                    static_cast<unsigned long long>(opt.iters),
                    opt.gen.numOps);
    return 0;
}
