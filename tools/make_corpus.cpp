// Regenerates the golden regression corpus in data/corpus/.
//
// For each (family, seed) pair below, writes the instance as canonical JSON
// (core/instance_json.hpp: the codec the wire protocol uses, so the corpus
// doubles as protocol test vectors) and a golden file recording the EXACT
// optimal per-job speeds (rational strings). The test suite
// (tests/test_corpus.cpp) recomputes them and demands exact equality, pinning
// the offline algorithm's output against future refactors.
//
// Usage: tools/make_corpus <output-directory>

#include <fstream>
#include <iostream>

#include "mpss/core/instance_json.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/workload/generators.hpp"

int main(int argc, char** argv) {
  using namespace mpss;
  if (argc != 2) {
    std::cerr << "usage: make_corpus <output-directory>\n";
    return 2;
  }
  std::string directory = argv[1];

  struct Entry {
    const char* name;
    Instance instance;
  };
  std::vector<Entry> corpus;
  corpus.push_back({"uniform_m3",
                    generate_uniform({.jobs = 12, .machines = 3, .horizon = 20,
                                      .max_window = 9, .max_work = 7}, 101)});
  corpus.push_back({"uniform_m1",
                    generate_uniform({.jobs = 10, .machines = 1, .horizon = 16,
                                      .max_window = 8, .max_work = 6}, 102)});
  corpus.push_back({"bursty_m4",
                    generate_bursty({.bursts = 3, .jobs_per_burst = 4, .machines = 4,
                                     .horizon = 24, .burst_window = 5, .max_work = 6},
                                    103)});
  corpus.push_back({"laminar_m2",
                    generate_laminar({.jobs = 12, .machines = 2, .depth = 4,
                                      .max_work = 8}, 104)});
  corpus.push_back({"agreeable_m3",
                    generate_agreeable({.jobs = 12, .machines = 3, .horizon = 22,
                                        .min_window = 2, .max_window = 8,
                                        .max_work = 6}, 105)});
  corpus.push_back({"periodic_m2",
                    generate_periodic({.tasks = 4, .machines = 2, .hyperperiods = 1,
                                       .max_work = 5}, 106)});
  corpus.push_back({"heavytail_m4",
                    generate_heavy_tail({.jobs = 14, .machines = 4, .horizon = 30,
                                         .shape = 1.4, .max_work = 32}, 107)});
  corpus.push_back({"surprise_m2",
                    generate_surprise({.jobs = 12, .machines = 2, .horizon = 20,
                                       .max_work = 6, .urgent_window = 3}, 108)});
  corpus.push_back({"stack_m1", generate_avr_adversary(10, 1)});
  corpus.push_back({"fractional_m2",
                    Instance({Job{Q(0), Q(1, 2), Q(2, 3)}, Job{Q(1, 3), Q(5, 6), Q(1, 7)},
                              Job{Q(1, 4), Q(2), Q(3, 2)}, Job{Q(0), Q(2), Q(1)}},
                             2)});

  for (const Entry& entry : corpus) {
    std::string base = directory + "/" + entry.name;
    save_instance(entry.instance, base + ".instance.json");

    auto result = optimal_schedule(entry.instance);
    std::ofstream golden(base + ".golden.csv");
    if (!golden) {
      std::cerr << "cannot write " << base << ".golden.csv\n";
      return 1;
    }
    golden << "job,speed\n";
    for (std::size_t k = 0; k < entry.instance.size(); ++k) {
      golden << k << "," << result.speed_of_job(k).to_string() << "\n";
    }
    std::cout << entry.name << ": " << entry.instance.summary() << " -> "
              << result.phases.size() << " phases\n";
  }
  std::cout << "corpus written to " << directory << "\n";
  return 0;
}
