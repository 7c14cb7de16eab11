# Feeds the bench_smoke parse step (json_check.cmake) the two malformed
# reports CMake's JSON reader accepts on its own, a trailing comma and a
# second top-level value, and valid reports: a hand-made one with brackets
# and commas inside strings, and every committed golden report. Run by the
# bench_json_parse ctest:
#
#   cmake -DWORK=<scratch dir> -P json_check_test.cmake
include("${CMAKE_CURRENT_LIST_DIR}/json_check.cmake")
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/trailing_comma.json" "{\"a\": 1,}\n")
file(WRITE "${WORK}/two_values.json" "{\"a\": 1} {\"b\": 2}\n")
file(WRITE "${WORK}/valid.json"
  "{\"name\": \"a, \\\"b}\\\"\", \"rows\": [\n"
  "    {\"x\": [1, 2.5e-3], \"y\": {}},\n"
  "    {\"x\": [], \"y\": {\"z\": \"],\"}}\n"
  "]}\n")

foreach(bad trailing_comma two_values)
  squirrel_check_json_report("${WORK}/${bad}.json" error)
  if(NOT error)
    message(FATAL_ERROR "${bad}.json passed the parse step")
  endif()
endforeach()
file(GLOB goldens "${CMAKE_CURRENT_LIST_DIR}/golden/BENCH_*.json")
foreach(good "${WORK}/valid.json" ${goldens})
  squirrel_check_json_report("${good}" error)
  if(error)
    message(FATAL_ERROR "${good} failed the parse step: ${error}")
  endif()
endforeach()
