# The parse step of the bench_smoke checks, shared by golden_check.cmake and
# its own ctest (json_check_test.cmake):
#
#   squirrel_check_json_report(<file> <result variable>)
#
# sets the variable to an empty string when <file> holds exactly one JSON
# object, and to the reason otherwise. CMake's string(JSON ... TYPE) rejects
# a missing comma, nan, inf and unbalanced brackets, but accepts a trailing
# comma and any text after the first value, so those two are checked on the
# text with its string literals blanked out.
function(squirrel_check_json_report file result)
  file(READ "${file}" text)
  string(JSON type ERROR_VARIABLE error TYPE "${text}")
  if(error)
    set(${result} "${error}" PARENT_SCOPE)
    return()
  endif()
  if(NOT type STREQUAL "OBJECT")
    set(${result} "the top-level value is ${type}, not an object" PARENT_SCOPE)
    return()
  endif()
  # Commas and brackets inside string literals do not count.
  string(REGEX REPLACE "\"([^\"\\\\]|\\\\.)*\"" "\"\"" bare "${text}")
  if(bare MATCHES ",[ \t\r\n]*[]}]")
    set(${result} "trailing comma" PARENT_SCOPE)
    return()
  endif()
  # Collapse the innermost objects and arrays until nothing changes: a single
  # top-level object leaves one placeholder, anything after it stays.
  set(previous "")
  while(NOT bare STREQUAL previous)
    set(previous "${bare}")
    string(REGEX REPLACE "[[{][^][{}]*[]}]" "0" bare "${bare}")
  endwhile()
  string(STRIP "${bare}" bare)
  if(NOT bare STREQUAL "0")
    set(${result} "text after the top-level object" PARENT_SCOPE)
    return()
  endif()
  set(${result} "" PARENT_SCOPE)
endfunction()
