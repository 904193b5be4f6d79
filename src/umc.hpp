#pragma once

// Umbrella header: the public API of unimincut in one include.
//
//   #include "umc.hpp"
//   umc::WeightedGraph g = ...;
//   umc::minoragg::Ledger ledger;
//   auto cut = umc::mincut::exact_mincut(g, rng, ledger);

#include "baseline/karger_stein.hpp"
#include "baseline/naive_two_respect.hpp"
#include "baseline/stoer_wagner.hpp"
#include "congest/compile.hpp"
#include "congest/compiled_network.hpp"
#include "congest/gather_baseline.hpp"
#include "congest/partwise.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "mincut/exact_mincut.hpp"
#include "mincut/tree_packing.hpp"
#include "mincut/two_respect.hpp"
#include "mincut/witness.hpp"
#include "minoragg/ledger.hpp"
#include "tree/spanning.hpp"
#include "util/rng.hpp"
